package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadManifest(t *testing.T, root string) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesProgram checks BENCHMARK.json against the
// program's own metric table: the same gated metrics, with the same
// unit, direction and bound, the four workloads, and run_seconds.
func TestManifestMatchesProgram(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	m := loadManifest(t, root)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", m.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, the program has %v", names, workloadNames)
	}
	check := func(list []manifestMetric, layer bool) {
		want := map[string]metricDef{}
		for _, d := range metricDefs {
			if d.Gated && d.Layer == layer {
				want[d.Name] = d
			}
		}
		for _, mm := range list {
			d, ok := want[mm.Name]
			if !ok {
				t.Errorf("%s is in BENCHMARK.json but is not a gated metric of the program", mm.Name)
				continue
			}
			delete(want, mm.Name)
			better := map[bool]string{true: "higher", false: "lower"}[d.Higher]
			if !nameRE.MatchString(mm.Name) || mm.Unit != d.Unit || mm.Better != better {
				t.Errorf("%s: manifest says %s/%s, the program %s/%s", mm.Name, mm.Unit, mm.Better, d.Unit, better)
			}
			if layer != (mm.Bound == nil) || (!layer && *mm.Bound != d.Bound) {
				t.Errorf("%s: bound differs from the program's %v", mm.Name, d.Bound)
			}
		}
		for name := range want {
			t.Errorf("%s is gated in the program but missing from BENCHMARK.json", name)
		}
	}
	check(m.EndToEnd, false)
	check(m.PerLayer, true)
}

// TestSmoke runs every workload at the smoke scale, end to end and
// traced, and checks what the driver will read: the last line parses
// and holds exactly the manifest's metrics with their units, every
// metric a workload reports is printed once, and nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	m := loadManifest(t, root)
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			runDir, err := os.MkdirTemp(filepath.Join(root, buildDir), "test-")
			if err != nil {
				t.Fatal(err)
			}
			res, err := runOne(root, bin, runDir, name, 1, scales["smoke"], 1.5, trace)
			os.RemoveAll(runDir)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Metrics["fail_ratio"] != 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", name, trace, res.Failed, res.Attempted, res.Notes)
			}

			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(res.contractLine()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s trace=%v: result line does not parse: %v", name, trace, err)
			}
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics on the result line, the manifest names %d", name, trace, len(line.Metrics), len(want))
			}
			for _, mm := range want {
				got, ok := line.Metrics[mm.Name]
				if !ok || got.Value == nil || got.Unit != mm.Unit {
					t.Errorf("%s trace=%v: %s missing from the result line or in the wrong unit", name, trace, mm.Name)
				}
				if _, measured := res.Metrics[mm.Name]; !measured {
					t.Errorf("%s trace=%v: %s was not measured", name, trace, mm.Name)
				}
			}

			var table bytes.Buffer
			res.print(&table)
			for _, d := range metricDefs {
				reports := d.reportedBy(name, trace)
				n := 0
				for _, l := range strings.Split(table.String(), "\n") {
					if f := strings.Fields(l); len(f) >= 3 && f[0] == d.Name && f[2] == d.Unit {
						n++
					}
				}
				if reports && n != 1 {
					t.Errorf("%s trace=%v: %s printed %d times, want once", name, trace, d.Name, n)
				}
				if !reports && n != 0 {
					t.Errorf("%s trace=%v: %s printed though this run does not report it", name, trace, d.Name)
				}
			}
		}
	}
}
