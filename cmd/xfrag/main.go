// Command xfrag answers keyword queries over an XML document with the
// fragment algebra.
//
// Usage:
//
//	xfrag -file doc.xml -query "XQuery optimization" -filter "size<=3"
//	xfrag -file doc.xml -query "..." -strategy push-down -stats
//	xfrag -file doc.xml -query "..." -slca            # baseline
//	xfrag -file doc.xml -outline                      # inspect the tree
//	xfrag -paper -query "XQuery optimization" -filter "size<=3" -explain
//
// -paper substitutes the built-in Figure 1 document of the paper for
// -file, so the running example works without any input.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/docgen"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/xmltree"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xfrag:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		file      = flag.String("file", "", "XML document to query")
		paper     = flag.Bool("paper", false, "use the paper's Figure 1 document instead of -file")
		keywords  = flag.String("query", "", "query keywords: terms, a|b disjunctions, \"quoted phrases\"")
		filterStr = flag.String("filter", "", "filter spec, e.g. 'size<=3,height<=2'")
		strategy  = flag.String("strategy", "auto", "auto | brute-force | naive | set-reduction | push-down")
		stats     = flag.Bool("stats", false, "print evaluation statistics")
		trace     = flag.Bool("trace", false, "print the per-operator evaluation trace (spans with cardinalities and durations)")
		explain   = flag.Bool("explain", false, "print logical and physical plans")
		slca      = flag.Bool("slca", false, "also print the SLCA/ELCA baseline answers")
		outline   = flag.Bool("outline", false, "print the document outline and exit")
		docstats  = flag.Bool("docstats", false, "print document shape statistics and exit")
		groupsOff = flag.Bool("flat", false, "print a flat fragment list instead of overlap groups")
		dotOut    = flag.String("dot", "", "write a Graphviz rendering of the document with answer nodes highlighted to this file")
		repl      = flag.Bool("repl", false, "interactive mode: read queries from stdin ('keywords :: filter' per line)")
	)
	flag.Parse()

	var (
		eng *engine.Engine
		err error
	)
	switch {
	case *paper:
		eng = engine.New(docgen.FigureOne())
	case *file != "":
		eng, err = engine.Load(*file)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -file or -paper (see -h)")
	}

	if *docstats {
		return eng.Document().ComputeStats().Write(os.Stdout)
	}
	if *outline {
		return eng.Document().Outline(os.Stdout)
	}
	if *repl {
		return runREPL(eng, os.Stdin, os.Stdout)
	}
	if *keywords == "" {
		return fmt.Errorf("need -query keywords")
	}

	// Under auto, strat is the strategy -explain displays (push-down).
	strat, auto, err := cost.ParseStrategy(*strategy)
	if err != nil {
		return err
	}
	opts := query.Options{Strategy: strat, Auto: auto, Trace: *trace}

	q, err := query.Parse(*keywords, *filterStr)
	if err != nil {
		return err
	}
	if *explain {
		fmt.Println("logical plan:")
		fmt.Print(q.LogicalPlan().Render())
		fmt.Printf("physical plan (%v):\n", strat)
		fmt.Print(q.PhysicalPlan(strat).Render())
		fmt.Println()
	}

	// -trace runs the query under a real trace (the same machinery the
	// server's flight recorder uses) so the output shows the trace ID,
	// the structured span tree, and the per-stage latency split.
	var tr *obs.Trace
	runCtx := context.Background()
	if *trace {
		tr = obs.NewRecorder(1, 0).StartTrace("cli", q.String(), obs.TraceID{})
		runCtx = obs.ContextWithTrace(runCtx, tr)
	}
	ans, err := eng.RunContext(runCtx, q, opts)
	if err != nil {
		return err
	}
	tr.Finish(ans.Len())
	if *groupsOff {
		fmt.Printf("%v → %d fragment(s)\n", q, ans.Len())
		for _, f := range ans.Fragments() {
			fmt.Println(f)
			ans.WriteFragment(os.Stdout, f)
		}
	} else {
		fmt.Print(ans.Render())
	}

	if *dotOut != "" {
		highlight := map[xmltree.NodeID]bool{}
		for _, f := range ans.Fragments() {
			for _, id := range f.IDs() {
				highlight[id] = true
			}
		}
		df, err := os.Create(*dotOut)
		if err != nil {
			return err
		}
		if err := eng.Document().WriteDOT(df, highlight); err != nil {
			df.Close()
			return err
		}
		if err := df.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d highlighted nodes)\n", *dotOut, len(highlight))
	}

	if *trace {
		fmt.Printf("\ntrace %s:\n", tr.ID())
		fmt.Print(tr.Root().Render())
		if total := ans.Result.Stats.Stages.Total(); total > 0 {
			fmt.Println("stages:")
			for st := obs.Stage(0); st < obs.NumStages; st++ {
				ns := ans.Result.Stats.Stages[st]
				if ns == 0 {
					continue
				}
				fmt.Printf("  %-10s %10v  %5.1f%%\n", st, time.Duration(ns), 100*float64(ns)/float64(total))
			}
		}
	}
	if *stats {
		st := ans.Result.Stats
		fmt.Printf("\nstats: strategy=%v seeds=%v fixpoints=%v candidates=%d answers=%d joins=%d elapsed=%v\n",
			st.Strategy, st.SeedSizes, st.FixedPointSizes, st.Candidates, st.Answers, st.Joins, st.Elapsed)
		fmt.Printf("ops: pairwise=%d powerset=%d iterations=%d prunes=%d\n",
			st.Ops.PairwiseJoins, st.Ops.PowersetExpansions, st.Ops.FixedPointIterations, st.Ops.FilterPrunes)
		fmt.Printf("kernel: mirrors=%d dedup-probes=%d\n", st.Ops.JoinMemoHits, st.Ops.DedupProbes)
		fmt.Printf("enumerate: nodes=%d prunes=%d\n", st.Ops.EnumNodes, st.Ops.EnumPrunes)
	}
	if *slca {
		fmt.Printf("\nSLCA baseline: %v\n", eng.SLCA(*keywords))
		fmt.Printf("ELCA baseline: %v\n", eng.ELCA(*keywords))
		for _, v := range eng.SLCA(*keywords) {
			end := eng.Document().SubtreeEnd(v)
			fmt.Printf("  smallest subtree at %v: nodes [%v..%v]\n", v, v, end)
		}
	}
	return nil
}

// runREPL reads one query per line: "keywords" or "keywords :: filter".
// Lines beginning with '#' are comments; ":quit" exits. Errors are
// reported per line, never fatal.
func runREPL(eng *engine.Engine, in io.Reader, out io.Writer) error {
	fmt.Fprintln(out, "xfrag repl — 'keywords :: filter' per line, :quit to exit")
	scanner := bufio.NewScanner(in)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case line == ":quit" || line == ":q":
			return nil
		}
		keywords, filterSpec, _ := strings.Cut(line, "::")
		var ans *engine.Answer
		q, err := query.Parse(strings.TrimSpace(keywords), strings.TrimSpace(filterSpec))
		if err == nil {
			ans, err = eng.RunContext(context.Background(), q, query.Options{Auto: true})
		}
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			continue
		}
		fmt.Fprint(out, ans.Render())
	}
	return scanner.Err()
}
