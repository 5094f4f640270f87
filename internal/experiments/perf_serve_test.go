package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestServePerfLatencyRowHasNoThroughput: the serve/latency-p99 row records
// the tail latency only; the round-trip MB/s belongs to the round-trip row.
func TestServePerfLatencyRowHasNoThroughput(t *testing.T) {
	rep := &PerfReport{}
	add := func(name, group string, bytes int, fn func() error) error { return fn() }
	if err := runServePerf(true, add, rep); err != nil {
		t.Fatal(err)
	}
	rows := map[string]PerfRow{}
	for _, r := range rep.Rows {
		rows[r.Name] = r
	}
	rt, p99 := rows["serve/compress-roundtrip"], rows["serve/latency-p99"]
	if rt.MBPerSec <= 0 {
		t.Fatalf("round-trip row MB/s = %g, want > 0", rt.MBPerSec)
	}
	if p99.NsPerOp <= 0 || p99.MBPerSec != 0 {
		t.Fatalf("latency-p99 row ns/op %g, MB/s %g: want a latency and no throughput", p99.NsPerOp, p99.MBPerSec)
	}
}

// TestCommittedPerfReportsValidate: every committed bench-perf report still
// passes ValidatePerf.
func TestCommittedPerfReportsValidate(t *testing.T) {
	for _, name := range []string{"BENCH_PR5.json", "BENCH_PR6.json", "BENCH_PR7.json", "BENCH_PR8.json"} {
		blob, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePerf(blob); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
