package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"compso/internal/serve"
	"compso/internal/serve/loadgen"
)

// Serve-throughput rows for the bench-perf report: the full HTTP data plane
// (admission, pooled body handling, per-session serialization, metrics)
// driven in-process by the load generator, so regressions in the service
// shell — not just the codec kernels — show up in the committed trajectory.
// Group "serve"; the e2e ns/op is mean wall-clock per completed compress
// round-trip at the configured concurrency, and allocs/op is the whole
// process's per-request heap cost measured across the run.

// runServePerf appends the serve rows to rep using the shared add helper.
func runServePerf(quick bool, add func(name, group string, bytes int, fn func() error) error, rep *PerfReport) error {
	sessions, requests := 256, 10
	if quick {
		sessions, requests = 64, 4
	}
	maxElems := 1 << 14

	srv := serve.New(serve.Config{
		MaxSessions: sessions + 1,
		MaxInflight: sessions + 1, // capacity run: measure throughput, not shedding
	})
	cfg := loadgen.Config{
		Transport:          loadgen.HandlerTransport(srv.Handler()),
		Sessions:           sessions,
		RequestsPerSession: requests,
		Tenants:            8,
		MaxElems:           maxElems,
		Seed:               3,
		Verify:             true,
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	repLG, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("serve perf: %w", err)
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if repLG.Errors > 0 {
		return fmt.Errorf("serve perf: %d request errors (first: %v)", repLG.Errors, repLG.ErrorSamples)
	}
	if repLG.Requests == 0 {
		return fmt.Errorf("serve perf: no requests completed")
	}

	nReq := float64(repLG.Requests)
	row := PerfRow{
		Name:        "serve/compress-roundtrip",
		Group:       "serve",
		NsPerOp:     float64(wall.Nanoseconds()) / nReq,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / nReq,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / nReq,
		MBPerSec:    repLG.CompressMBPerSec,
	}
	rep.Rows = append(rep.Rows, row)
	// The tail-latency row carries no throughput: MBPerSec stays zero, the
	// round-trip row above holds it.
	rep.Rows = append(rep.Rows, PerfRow{
		Name:    "serve/latency-p99",
		Group:   "serve",
		NsPerOp: repLG.LatencyP99 * 1e9,
	})

	// Single-stream row via the shared measurement loop: one session, one
	// request at a time — the per-request overhead of the HTTP shell with no
	// queueing, directly comparable to the library-level pipeline rows.
	one := loadgen.Config{
		Transport:          loadgen.HandlerTransport(srv.Handler()),
		Sessions:           1,
		RequestsPerSession: 1,
		Tenants:            1,
		MaxElems:           maxElems,
		Seed:               5,
		Verify:             true,
	}
	sized, err := loadgen.Run(ctx, one) // deterministic seed: same gradient every run
	if err != nil {
		return fmt.Errorf("serve single-stream: %w", err)
	}
	return add("serve/single-stream", "serve", int(sized.BytesUncompressed), func() error {
		r, err := loadgen.Run(ctx, one)
		if err != nil {
			return err
		}
		if r.Errors > 0 {
			return fmt.Errorf("serve single-stream: %v", r.ErrorSamples)
		}
		return nil
	})
}
