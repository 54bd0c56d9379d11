package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps everything it writes besides
// benchmark/out: the server binary, the Go build cache (when run.sh
// points GOCACHE there) and the per-run data directories.
const buildDir = ".bench_build"

// repoRoot finds the directory holding the repository's go.mod, from
// either the root itself or benchmark/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from benchmark/: no go.mod of module repro found")
}

// buildServer compiles ./cmd/xfragserver from the working tree on every
// run, so a stale binary can never be measured. The Go build cache
// makes the repeat builds cheap without making them stale.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "xfragserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xfragserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/xfragserver: %v\n%s", err, out)
	}
	return bin, nil
}

// envRecord is the environment block printed with every result.
type envRecord struct {
	Commit      string   `json:"commit"`
	Dirty       bool     `json:"dirty"`
	GoVersion   string   `json:"go_version"`
	NProc       int      `json:"nproc"`
	CPUModel    string   `json:"cpu_model"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	ServerFlags []string `json:"server_flags"`
	Seed        int64    `json:"seed"`
	Scale       string   `json:"scale"`
	Seconds     float64  `json:"seconds"`
}

func recordEnv(root string, seed int64, sc scale, seconds float64) envRecord {
	e := envRecord{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), ServerFlags: append([]string{"-addr", "127.0.0.1:PORT"}, storeFlags("DATA", "INDEX")...),
		Seed: seed, Scale: sc.name, Seconds: seconds,
	}
	// A driver's checkout is not a git repository; the commit is then
	// unknown and the tree counts as clean.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		st, _ := exec.Command("git", "-C", root, "status", "--porcelain").Output()
		e.Dirty = len(bytes.TrimSpace(st)) > 0
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// storeFlags are the production defaults plus the directories and
// -quiet; startServer adds -addr. Nothing here tunes the server for
// the benchmark.
func storeFlags(dataDir, indexDir string) []string {
	return []string{"-data-dir", dataDir, "-index-dir", indexDir, "-quiet"}
}

// server is one xfragserver process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	pid    int
	exited chan struct{}
	stderr bytes.Buffer
	peakMB float64 // VmHWM when last sampled
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs the binary and returns at once; the caller times
// waitReady from its own start instant.
func startServer(bin string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	s.pid = s.cmd.Process.Pid
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed server is not news
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before ready: %s", s.stderr.String())
		default:
		}
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not ready after %v: %s", timeout, s.stderr.String())
}

// stop ends the process with sig and waits until it has exited. The
// peak resident size is read first: /proc/<pid> disappears with the
// process.
func (s *server) stop(sig syscall.Signal) error {
	s.sampleRSS()
	select {
	case <-s.exited:
		return nil
	default:
	}
	if err := s.cmd.Process.Signal(sig); err != nil {
		return err
	}
	select {
	case <-s.exited:
		return nil
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("server ignored %v for 20s and was killed", sig)
	}
}

func (s *server) sampleRSS() {
	if v := procStatusKB(s.pid, "VmHWM"); v > 0 {
		s.peakMB = float64(v) / 1024
	}
}

// procStatusKB reads one kB-valued field of /proc/<pid>/status.
func procStatusKB(pid int, field string) int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == field {
			n, _ := strconv.ParseInt(strings.Fields(v)[0], 10, 64)
			return n
		}
	}
	return 0
}

// procCPUSeconds is the process's user+system CPU time.
func procCPUSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line, in clock ticks of 1/100 s.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// dirBytes sums the regular files under dir whose base name keep
// accepts.
func dirBytes(dir string, keep func(name string) bool) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() && keep(d.Name()) {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// scrape reads GET /api/v1/metrics into a flat name → value map:
// the store registry's counters and gauges, plus the per-shard engine
// registries summed over shards. Histograms are skipped.
func (s *server) scrape(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(s.base + "/api/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	add := func(m map[string]any) {
		for k, v := range m {
			if f, ok := v.(float64); ok {
				out[k] += f
			}
		}
	}
	add(raw)
	shards, _ := raw["shards"].([]any)
	out["_shards"] = float64(len(shards))
	for _, sh := range shards {
		if m, ok := sh.(map[string]any); ok {
			add(m)
		}
	}
	return out, nil
}
