package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/subsum/subsum/internal/schema"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestCatalogMatchesBenchmarkFile checks that every metric the command
// prints appears in BENCHMARK.json with its unit, and vice versa.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchFile(t)
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	sameDefs(t, "end_to_end", e2e, endToEnd)
	sameDefs(t, "per_layer", bf.PerLayer, perLayer)
	for _, w := range bf.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Error(err)
		}
	}
}

func sameDefs(t *testing.T, what string, file, prog []metricDef) {
	t.Helper()
	in := map[string]metricDef{}
	for _, d := range prog {
		in[d.Name] = d
	}
	for _, d := range file {
		p, ok := in[d.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, which the program does not print", what, d.Name)
			continue
		}
		if p != d {
			t.Errorf("%s: BENCHMARK.json has %+v, the program prints %+v", what, d, p)
		}
		delete(in, d.Name)
	}
	for name := range in {
		t.Errorf("%s: the program prints %s, which BENCHMARK.json does not list", what, name)
	}
}

// TestRunPrintsEveryDeclaredMetric runs short in-process and daemon-path
// workloads both ways and checks the metric sets the command would print.
func TestRunPrintsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine")
	}
	for _, name := range []string{"filter", "wire"} {
		for _, traced := range []bool{false, true} {
			sp, _ := specByName(name)
			r, err := newRunner(sp, 1, 2, traced)
			if err != nil {
				t.Fatal(err)
			}
			m, err := r.measure(map[string]any{}, t.TempDir())
			r.net.Close()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if err := checkMetrics(m, defs); err != nil {
				t.Errorf("%s traced=%v: %v (notes %v)", name, traced, err, r.notes)
			}
			if r.opsFailed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, r.opsFailed, r.opsAttempts, r.notes)
			}
		}
	}
}

func TestEventTextRoundTrip(t *testing.T) {
	sp, _ := specByName("filter")
	in, err := newInputs(sp, 7, 24)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 50; seq++ {
		ev, err := schema.ParseEvent(in.schema, in.text(seq))
		if err != nil {
			t.Fatalf("event %d: %v", seq, err)
		}
		want := in.event(seq).Format(in.schema)
		if got := ev.Format(in.schema); got != want {
			t.Fatalf("event %d: parsed %s, want %s", seq, got, want)
		}
		if n, ok := seqFromText(want); !ok || n != seq {
			t.Fatalf("seqFromText(%s) = %d, %v", want, n, ok)
		}
	}
}
