// Package selftest runs every benchmark workload at a small size with
// every oracle on, untraced and traced, and checks that BENCHMARK.json
// names exactly the metrics the benchmark reports.
//
//	cd perfbench && go test ./selftest
package selftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"atmcac/perfbench/bench"
)

func TestWorkloadsSmall(t *testing.T) {
	for _, w := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				var out bytes.Buffer
				res, err := bench.Run(bench.Options{
					Workload: w, Seed: 7, Seconds: 1, Trace: traced,
					Dir: t.TempDir(), Small: true, Out: &out,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed > 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := bench.EndToEnd
				if traced {
					want = bench.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics reported, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(bench.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(bench.Workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != bench.Workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, bench.Workloads[i])
		}
	}
	check := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v reported", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, bench.EndToEnd)
	check("per_layer", spec.PerLayer, bench.PerLayer)
}
