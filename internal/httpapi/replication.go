package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/repl"
)

// Role is the node's place in a replication topology.
type Role int

const (
	// RoleStandalone is a single node: no replication endpoints, no
	// lag headers — the behavior before replication existed.
	RoleStandalone Role = iota
	// RolePrimary accepts writes and serves the internal /repl/v1/*
	// WAL-shipping endpoints for followers.
	RolePrimary
	// RoleReplica serves reads from a follower-fed store, rejects
	// writes with 403 + the primary's URL, and gates /readyz on
	// replication staleness.
	RoleReplica
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	default:
		return "standalone"
	}
}

// Replica-facing response headers. Lag headers appear on every
// replica response so a load balancer (or a client doing
// read-your-writes) can route around stale nodes without an extra
// round trip; the primary-URL header accompanies 403 write
// rejections.
const (
	// ReplicaLagHeader is the replica's worst-shard lag in records.
	ReplicaLagHeader = "X-Xfrag-Replica-Lag"
	// ReplicaLagSecondsHeader is the worst-shard staleness in seconds.
	ReplicaLagSecondsHeader = "X-Xfrag-Replica-Lag-Seconds"
	// PrimaryURLHeader names the primary to send writes to.
	PrimaryURLHeader = "X-Xfrag-Primary-Url"
)

// ReplicationConfig attaches a replication role to a server.
type ReplicationConfig struct {
	// Role selects the topology position (default RoleStandalone).
	Role Role
	// PrimaryURL is the primary's base URL; required on a replica
	// (write rejections point clients at it).
	PrimaryURL string
	// Follower is the replica's running pull loop; required on a
	// replica. The caller starts and stops it — the server only reads
	// lag from it.
	Follower *repl.Follower
	// MaxStaleness is how far a replica may lag before /readyz
	// reports 503 (default 30s).
	MaxStaleness time.Duration
	// Stream tunes the primary's WAL streaming (optional; Store and
	// Metrics are filled in from the server).
	Stream repl.Server
}

func (c *ReplicationConfig) maxStaleness() time.Duration {
	if c.MaxStaleness > 0 {
		return c.MaxStaleness
	}
	return 30 * time.Second
}

// initReplication mounts the role-specific routes. Called from init
// after the core routes are registered; validation errors surface as
// a panic because they are programmer errors (a replica without a
// follower cannot serve anything sensible).
func (s *Server) initReplication() {
	rc := s.cfg.Replication
	if rc == nil || rc.Role == RoleStandalone {
		return
	}
	switch rc.Role {
	case RolePrimary:
		if !s.st.Durable() {
			panic("httpapi: primary role requires a durable store (-data-dir)")
		}
		stream := rc.Stream
		stream.Store = s.st
		stream.Metrics = s.st.Metrics()
		s.mux.Handle("GET /repl/v1/", stream.Handler())
	case RoleReplica:
		if rc.Follower == nil || rc.PrimaryURL == "" {
			panic("httpapi: replica role requires a Follower and a PrimaryURL")
		}
	}
	s.addRoute("GET", "/replication", "Replication role, lag and WAL positions.", nil, s.handleReplication)
}

// role returns the effective replication role.
func (s *Server) role() Role {
	if s.cfg.Replication == nil {
		return RoleStandalone
	}
	return s.cfg.Replication.Role
}

// rejectReplicaWrite answers mutation attempts on a replica: 403 plus
// the primary's URL, in the header and the error message, so clients
// can re-issue the write without out-of-band configuration.
func (s *Server) rejectReplicaWrite(w http.ResponseWriter) bool {
	if s.role() != RoleReplica {
		return false
	}
	primary := s.cfg.Replication.PrimaryURL
	w.Header().Set(PrimaryURLHeader, primary)
	s.error(w, http.StatusForbidden, "read_only_replica",
		fmt.Errorf("this node is a read replica; send writes to the primary at %s", primary))
	return true
}

// setLagHeaders stamps the replica's current lag onto a response.
func (s *Server) setLagHeaders(h http.Header) {
	lag := s.cfg.Replication.Follower.Lag()
	h.Set(ReplicaLagHeader, strconv.FormatUint(lag.MaxLagRecords, 10))
	h.Set(ReplicaLagSecondsHeader, strconv.FormatFloat(lag.MaxLagSeconds, 'f', 3, 64))
}

// replicaReady reports whether the replica is fresh enough to serve:
// connected to the primary, fully caught up at least once (a freshly
// started, still-empty replica must not pass just because its
// staleness clock hasn't run out yet), and within the staleness bound
// since.
func (s *Server) replicaReady() (repl.Lag, bool) {
	rc := s.cfg.Replication
	lag := rc.Follower.Lag()
	return lag, lag.Connected && lag.SyncedOnce && lag.MaxLagSeconds <= rc.maxStaleness().Seconds()
}

// handleReplication serves GET /api/v1/replication: the node's role
// plus, on a replica, the full per-shard lag breakdown, and on a
// primary, the per-shard WAL positions followers stream from.
func (s *Server) handleReplication(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"role": s.role().String()}
	switch s.role() {
	case RoleReplica:
		rc := s.cfg.Replication
		body["primary_url"] = rc.PrimaryURL
		body["max_staleness_seconds"] = rc.maxStaleness().Seconds()
		body["lag"] = rc.Follower.Lag()
	case RolePrimary:
		pos, err := s.st.WALPositions()
		if err != nil {
			s.error(w, http.StatusServiceUnavailable, "not_ready", err)
			return
		}
		body["positions"] = pos
	}
	writeJSON(w, http.StatusOK, body)
}

// errStaleReplica is the readyz detail when lag exceeds the bound.
var errStaleReplica = errors.New("replica lag exceeds staleness bound")
