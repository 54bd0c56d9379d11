// Command benchmark is the xfrag benchmark: it builds ./cmd/xfragserver
// from the working tree, drives it over HTTP through four workloads and
// prints every metric by name with its unit; with -trace 1 it replays
// the same generated operations in-process and peels the time apart
// layer by layer. README.md describes the workloads and the metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	workload := flag.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the corpus and of every schedule")
	seconds := flag.Float64("seconds", defaultSeconds, "measuring time of one run, shared out among its windows")
	trace := flag.Int("trace", 0, "1 replays the operations in-process and prints the per-layer table")
	scaleName := flag.String("scale", "full", "full, or smoke for the 200-document test size")
	repeat := flag.Int("repeat", 1, "runs per workload; prints median and quartiles across them")
	seedStep := flag.Int64("seed-step", 0, "with -repeat, run i uses seed + i×step (the driver's acceptance check varies the seed)")
	out := flag.String("out", "", "write every run's result to this JSON file (the input of -compare)")
	cmp := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if medians differ by more than a bound")
	flag.Parse()
	// The load generator shares the machine with the server it measures:
	// collect its garbage rarely, and (in runList) between windows.
	debug.SetGCPercent(400)

	if *cmp {
		if flag.NArg() != 2 {
			fatal("-compare needs two result files")
		}
		a, err := loadResultSet(flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		b, err := loadResultSet(flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if over := compare(os.Stdout, a, b); over > 0 {
			fatal("%d metrics differ by more than their bound", over)
		}
		return
	}

	sc, ok := scales[*scaleName]
	if !ok {
		fatal("unknown -scale %q", *scaleName)
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fatal("unknown -workload %q", *workload)
		}
		names = []string{*workload}
	}
	root, err := repoRoot()
	if err != nil {
		fatal("%v", err)
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		fatal("%v", err)
	}
	bin, err := buildServer(root)
	if err != nil {
		fatal("%v", err)
	}

	set := &resultSet{}
	for _, name := range names {
		for i := 0; i < *repeat; i++ {
			runDir, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
			if err != nil {
				fatal("%v", err)
			}
			res, err := runOne(root, bin, runDir, name, *seed+int64(i)**seedStep, sc, *seconds, *trace == 1)
			os.RemoveAll(runDir)
			if err != nil {
				fatal("%s: %v", name, err)
			}
			res.print(os.Stdout)
			set.Runs = append(set.Runs, res)
		}
	}
	if *repeat > 1 {
		set.printSpread(os.Stdout)
	}
	if *out != "" {
		if err := set.save(*out); err != nil {
			fatal("%v", err)
		}
	}
	// A run that finished exits 0 even when operations failed: the
	// result's correct and failed fields say so. Only a red flag or a
	// broken environment stops the program.
	if len(set.Runs) == 1 {
		fmt.Println(set.Runs[0].contractLine())
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// runOne runs one workload once: the end-to-end pass, or with trace the
// shortened live pass followed by the in-process replay.
func runOne(root, bin, runDir, name string, seed int64, sc scale, seconds float64, trace bool) (*result, error) {
	c, err := newCorpus(seed, sc)
	if err != nil {
		return nil, err
	}
	if err := c.oracle(); err != nil {
		return nil, err
	}
	if !trace {
		c.parsed = nil // only the replay needs the trees again
	}
	r := &runner{
		bin: bin, sc: sc, seconds: seconds, c: c, runDir: runDir, liveBytes: c.userBytes,
		cl:  newClient(runtime.NumCPU()),
		res: newResult(name, trace, recordEnv(root, seed, sc, seconds)),
	}
	if trace {
		// The live pass of a traced run exists for the counters only
		// the running server has; one set-up and a quarter of the
		// windows are enough for those.
		r.sc.setups, r.sc.restarts, r.sc.restartCycles, r.sc.replicaBoots = 1, 1, 1, 1
		r.seconds = seconds / 4
	}
	defer r.closeAll()
	switch name {
	case "search-selective":
		err = r.searchSelective()
	case "search-joinheavy":
		err = r.searchJoinHeavy()
	case "ingest-mixed":
		err = r.ingestMixed()
	case "restart-replica":
		err = r.restartReplica()
	}
	if err != nil {
		return nil, err
	}
	res := r.res
	res.set("rss_peak_mb", r.closeAll())
	res.Attempted = r.total.attempted + r.auditFail
	res.Failed = r.total.failed + r.auditFail
	if r.total.firstErr != nil {
		res.Notes = append(res.Notes, "first failed operation: "+r.total.firstErr.Error())
	}
	res.set("fail_ratio", float64(res.Failed)/float64(max(1, res.Attempted)))
	if trace {
		// The shortened windows' end-to-end numbers are not results.
		for name := range res.Metrics {
			if !defByName[name].Layer {
				delete(res.Metrics, name)
				delete(res.Samples, name)
			}
		}
		// ingest-mixed's live pass grew the watched shapes' expected
		// answers; the replay starts from the bare corpus again.
		if err := c.oracle(); err != nil {
			return nil, err
		}
		if err := runReplay(r, root); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
