package httpapi

import "net/http"

// routeParam documents one request parameter in the route manifest.
type routeParam struct {
	Name string `json:"name"`
	// In is where the parameter travels: "query", "path" or "body".
	In  string `json:"in"`
	Doc string `json:"doc,omitempty"`
}

// routeDef couples one route's registration with its manifest entry,
// so the served surface and the machine-readable description cannot
// drift apart: both are generated from this table.
type routeDef struct {
	Method  string
	Path    string // relative to the version prefix, e.g. "/search"
	Doc     string
	Params  []routeParam
	handler http.HandlerFunc
}

// ManifestRoute is one row of the GET /api/v1 route manifest.
type ManifestRoute struct {
	Method string       `json:"method"`
	Path   string       `json:"path"`
	Doc    string       `json:"doc,omitempty"`
	Params []routeParam `json:"params,omitempty"`
}

// qp / pp / bp build query-, path- and body-parameter docs tersely.
func qp(name, doc string) routeParam { return routeParam{Name: name, In: "query", Doc: doc} }
func pp(name, doc string) routeParam { return routeParam{Name: name, In: "path", Doc: doc} }
func bp(name, doc string) routeParam { return routeParam{Name: name, In: "body", Doc: doc} }

// addRoute appends one route to the server's table (mounted later by
// mountRoutes).
func (s *Server) addRoute(method, path, doc string, params []routeParam, h http.HandlerFunc) {
	s.routes = append(s.routes, routeDef{Method: method, Path: path, Doc: doc, Params: params, handler: h})
}

// mountRoutes registers every table entry under the versioned surface
// (/api/v1/...). The manifest endpoint GET /api/v1 is mounted
// alongside, generated from the same table.
func (s *Server) mountRoutes() {
	for _, rd := range s.routes {
		s.mux.HandleFunc(rd.Method+" /api/v1"+rd.Path, rd.handler)
	}
	s.mux.HandleFunc("GET /api/v1", s.handleManifest)
	s.mux.HandleFunc("GET /api/v1/{$}", s.handleManifest)
}

// handleManifest serves GET /api/v1: the machine-readable description
// of the HTTP surface — method, path and parameters per route — so
// clients discover the API instead of guessing it.
func (s *Server) handleManifest(w http.ResponseWriter, _ *http.Request) {
	routes := make([]ManifestRoute, 0, len(s.routes))
	for _, rd := range s.routes {
		routes = append(routes, ManifestRoute{
			Method: rd.Method,
			Path:   "/api/v1" + rd.Path,
			Doc:    rd.Doc,
			Params: rd.Params,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"service": "xfrag",
		"version": "v1",
		"routes":  routes,
	})
}
