package xfrag_test

// Smoke tests for the command-line tools: each binary is built once
// into a temp dir and driven the way a user would drive it. These
// guard flag wiring and output plumbing that the package tests cannot
// see.

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildTools compiles every cmd/ binary once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "xfrag-tools")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"xfrag", "xfraggen", "xfragbench", "xfragserver"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, tool), "./cmd/"+tool)
			cmd.Env = os.Environ()
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				buildDir = string(out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v\n%s", buildErr, buildDir)
	}
	return buildDir
}

func runTool(t *testing.T, dir, tool string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIPaperQuery(t *testing.T) {
	dir := buildTools(t)
	out, err := runTool(t, dir, "xfrag",
		"-paper", "-query", "XQuery optimization", "-filter", "size<=3", "-stats", "-slca")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"4 fragment(s)", "⟨n16,n17,n18⟩", "SLCA baseline: [n17]", "strategy=enumerate", "joins=0", "enumerate: nodes=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIExplainAndStrategies(t *testing.T) {
	dir := buildTools(t)
	out, err := runTool(t, dir, "xfrag",
		"-paper", "-query", "XQuery optimization", "-filter", "size<=3",
		"-strategy", "set-reduction", "-explain", "-flat")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "logical plan:") || !strings.Contains(out, "⊖") {
		t.Fatalf("explain output wrong:\n%s", out)
	}
	if _, err := runTool(t, dir, "xfrag", "-paper", "-query", "x", "-strategy", "warp"); err == nil {
		t.Fatal("unknown strategy must fail")
	}
	if _, err := runTool(t, dir, "xfrag", "-query", "x"); err == nil {
		t.Fatal("missing -file/-paper must fail")
	}
}

func TestCLIOutlineAndDocstats(t *testing.T) {
	dir := buildTools(t)
	out, err := runTool(t, dir, "xfrag", "-paper", "-outline")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "n0 <article>") {
		t.Fatalf("outline:\n%s", out)
	}
	out, err = runTool(t, dir, "xfrag", "-paper", "-docstats")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "nodes 82") || !strings.Contains(out, "<par>") {
		t.Fatalf("docstats:\n%s", out)
	}
}

func TestCLIGenPipeline(t *testing.T) {
	dir := buildTools(t)
	tmp := t.TempDir()
	corpus := filepath.Join(tmp, "corpus.xml")
	out, err := runTool(t, dir, "xfraggen",
		"-sections", "3", "-depth", "2", "-seed", "5", "-plant", "needlea:4,needleb:4", "-stats")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// Keep only stdout XML (stats went to stderr but CombinedOutput
	// merges; cut from first '<').
	xml := out[strings.Index(out, "<"):]
	if err := os.WriteFile(corpus, []byte(xml), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runTool(t, dir, "xfrag",
		"-file", corpus, "-query", "needlea needleb", "-filter", "size<=6")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "fragment(s)") {
		t.Fatalf("query output:\n%s", out)
	}
}

func TestCLIBenchList(t *testing.T) {
	dir := buildTools(t)
	out, err := runTool(t, dir, "xfragbench", "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, id := range []string{"table1", "fig8", "perf-strategies", "perf-effect"} {
		if !strings.Contains(out, id) {
			t.Fatalf("bench list missing %s:\n%s", id, out)
		}
	}
	out, err = runTool(t, dir, "xfragbench", "-exp", "table1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "final answer set (4 fragments)") {
		t.Fatalf("table1 output:\n%s", out)
	}
	if _, err := runTool(t, dir, "xfragbench", "-exp", "nonsense"); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestCLIServer(t *testing.T) {
	dir := buildTools(t)
	cmd := exec.Command(filepath.Join(dir, "xfragserver"), "-paper", "-addr", "127.0.0.1:18472")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	// Wait for readiness.
	var resp *http.Response
	var err error
	for i := 0; i < 50; i++ {
		resp, err = http.Get("http://127.0.0.1:18472/healthz")
		if err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never became ready: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get("http://127.0.0.1:18472/api/v1/search?q=xquery+optimization&filter=size%3C%3D3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Total != 4 {
		t.Fatalf("total = %d, want 4", body.Total)
	}

	// Without -data-dir the server runs on an in-memory store, which
	// takes async ingest: 202 with a job ID, and the job reaches done.
	resp, err = http.Post("http://127.0.0.1:18472/api/v1/docs?async=1", "application/json",
		strings.NewReader(`{"name":"async.xml","xml":"<doc><p>xquery optimization async</p></doc>"}`))
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		Job string `json:"job"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil || accepted.Job == "" {
		t.Fatalf("async add: status %d, job %q, err %v", resp.StatusCode, accepted.Job, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get("http://127.0.0.1:18472/api/v1/jobs/" + accepted.Job)
		if err != nil {
			t.Fatal(err)
		}
		var job struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("job status: %d %v", resp.StatusCode, err)
		}
		if job.Status == "done" {
			break
		}
		if job.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s ended %q", accepted.Job, job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCLIDotOutput(t *testing.T) {
	dir := buildTools(t)
	dot := filepath.Join(t.TempDir(), "answers.dot")
	out, err := runTool(t, dir, "xfrag",
		"-paper", "-query", "XQuery optimization", "-filter", "size<=3", "-dot", dot)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "digraph doc {") {
		t.Fatalf("not a dot file:\n%.100s", s)
	}
	// 5 distinct answer nodes (n16, n17, n18) highlighted.
	if strings.Count(s, "fillcolor") != 3 {
		t.Fatalf("highlight count = %d, want 3", strings.Count(s, "fillcolor"))
	}
}

func TestCLIRepl(t *testing.T) {
	dir := buildTools(t)
	cmd := exec.Command(filepath.Join(dir, "xfrag"), "-paper", "-repl")
	cmd.Stdin = strings.NewReader(
		"# comment line\n" +
			"XQuery optimization :: size<=3\n" +
			"nosuchterm anywhere\n" +
			":quit\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "4 fragment(s)") {
		t.Fatalf("repl answer missing:\n%s", s)
	}
	if !strings.Contains(s, "0 fragment(s)") {
		t.Fatalf("repl empty answer missing:\n%s", s)
	}
}
