// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed wall-clock window and prints, as the last line of
// standard output, a JSON object with the keys correct, attempted, failed
// and metrics. With --trace 0 the metrics are the end-to-end metrics,
// measured with tracing off; with --trace 1 a separate traced run reports
// the per-layer metrics from spans recorded around calls into each layer's
// public functions.
//
// Usage (see README.md; run.sh builds the binary first):
//
//	perfbench --workload kfac-resnet --seed 1 --seconds 15 --trace 0
//
// Every input is generated from --seed before the timed window, every
// output is checked, and the process exits non-zero when any check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run reports, with
// their units. Each workload fills every one of them; README.md gives the
// per-workload meaning.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"sim_comm_ms_per_step", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced run reports. A layer a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"tensor.eigensym_ms", "ms"},
	{"kfac.refresh_eigen_ms_per_step", "ms"},
	{"kfac.refresh_eigen_share_pct", "%"},
	{"kfac.eigen_refreshes", "count"},
	{"kfac.accumulate_stats_ms_per_step", "ms"},
	{"kfac.precondition_ms_per_step", "ms"},
	{"nn.forward_ms_per_step", "ms"},
	{"nn.backward_ms_per_step", "ms"},
	{"dataset.sample_ms_per_step", "ms"},
	{"step.replay_ms", "ms"},
	{"compress.compress_ms", "ms"},
	{"compress.decompress_ms", "ms"},
	{"compress.mb_per_s", "MB/s"},
	{"compress.ratio", "x"},
	{"serve.handler_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.session_create_ms", "ms"},
	{"cluster.allreduce_us", "us"},
	{"cluster.allgather_us", "us"},
	{"cluster.collectives_per_step", "count"},
	{"cluster.wire_bytes_per_step", "bytes"},
	{"collective.sim_ms.grad-allreduce", "ms"},
	{"collective.sim_ms.kfac-allreduce", "ms"},
	{"collective.sim_ms.kfac-allgather", "ms"},
	{"des.collectives_per_s", "1/s"},
	{"des.bytes_per_worker", "bytes"},
	{"des.program_build_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"host.calib_ms", "ms"},
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	spansDir string
	// tiny shrinks every workload to seconds of work (the self-test).
	tiny bool
	// wrongExpect deliberately corrupts each workload's expected output so
	// the self-test can prove a failed check fails the run.
	wrongExpect bool
}

// workload runs one workload and returns its metrics by name (units come
// from the endToEnd/perLayer tables).
type workload struct {
	why string
	run func(o options, chk *checker, tr *tracer) (map[string]float64, error)
}

var workloads = map[string]workload{
	"kfac-resnet": {
		why: "289x289 Kronecker factor: tensor.EigenSym and kfac dominate the step",
		run: func(o options, chk *checker, tr *tracer) (map[string]float64, error) {
			return runKFAC(resnetSpec, o, chk, tr)
		},
	},
	"kfac-gpt": {
		why: "factors at most 49x49: nn attention and kfac stats dominate, the eigensolver does not",
		run: func(o options, chk *checker, tr *tracer) (map[string]float64, error) {
			return runKFAC(gptSpec, o, chk, tr)
		},
	},
	"serve-compso": {why: "compso-serve handler round trips: compress and serve do the work", run: runServe},
	"des-scale":    {why: "8192-rank DES replay of ResNet-50 K-FAC+COMPSO: des and collective do the work", run: runDES},
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload input seed")
	flag.Float64Var(&seconds, "seconds", 15, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&o.spansDir, "spans-dir", "", "directory the traced run writes its spans to, as <workload>-seed<n>.jsonl")
	flag.Parse()
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes the workload and assembles its result. It writes the host
// fingerprint and a human-readable metric table to log; the caller prints
// the JSON line.
func run(o options, log io.Writer) (*result, error) {
	wl := workloads[o.workload]
	host := fingerprint()
	fmt.Fprintf(log, "# host: cpu=%q numcpu=%d gomaxprocs=%d go=%s calib_ms=%.3f\n",
		host.cpu, host.numCPU, host.maxProcs, host.goVersion, host.calibMS)
	fmt.Fprintf(log, "# workload %s (%s), seed %d, window %v, trace %v\n", o.workload, wl.why, o.seed, o.window, o.trace)

	heap := startHeapSampler()
	chk := &checker{log: log}
	var tr *tracer
	if o.trace {
		tr = newTracer(o.workload)
	}
	vals, err := wl.run(o, chk, tr)
	peak := heap.stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}

	table := endToEnd
	if o.trace {
		table = perLayer
		vals["host.calib_ms"] = host.calibMS
		if err := tr.write(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)); err != nil {
			return nil, err
		}
	} else {
		vals["peak_heap_mb"] = peak / (1 << 20)
	}
	res := &result{Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metric{}}
	for _, m := range table {
		v, ok := vals[m.name]
		if !ok && o.trace {
			// A layer the workload does not exercise reads 0.
			v, ok = 0, true
		}
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", o.workload, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(log, "# %-36s %14.6g %s\n", m.name, v, m.unit)
	}
	res.Correct = chk.failed == 0 && chk.attempted > 0
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	return res, nil
}

// checker counts attempted operations and failed ones, including every
// correctness check. A failure is logged with its reason.
type checker struct {
	mu                sync.Mutex
	log               io.Writer
	attempted, failed int
}

// attempt records one operation that has no check of its own.
func (c *checker) attempt() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

// check records one correctness check.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if c.failed <= 8 {
			fmt.Fprintf(c.log, "# CHECK FAILED: "+format+"\n", args...)
		}
	}
	return ok
}

// checkErr records one operation that succeeds when err is nil.
func (c *checker) checkErr(err error, what string) bool {
	return c.check(err == nil, "%s: %v", what, err)
}

// host is the fingerprint printed with every result, so that a change of
// machine is not read as a change of code.
type host struct {
	cpu              string
	numCPU, maxProcs int
	goVersion        string
	calibMS          float64
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

func fingerprint() host {
	h := host{cpu: cpuModel(), numCPU: runtime.NumCPU(), maxProcs: runtime.GOMAXPROCS(0), goVersion: runtime.Version()}
	var samples []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		calibSink += calibrate()
		samples = append(samples, ms(time.Since(t0)))
	}
	h.calibMS = median(samples)
	return h
}

// calibrate is a fixed amount of integer and floating-point work that no
// repository code touches: its time moves only when the host does.
func calibrate() uint64 {
	var x uint64 = 0x9e3779b97f4a7c15
	f := 1.0
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*0.999999 + float64(x&0xff)*1e-9
	}
	return x + uint64(f)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// heapSampler records the live heap of every garbage collection while the
// run executes.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

// startHeapSampler polls the runtime every 2 ms for the heap the last
// collection found live. The run's peak heap is the 95th percentile of
// those per-collection values: what the run holds at its busiest, not a
// post-GC delta, and not the one collection that happened to catch a
// transient buffer.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		var cycle uint64
		var live []float64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != cycle {
				cycle = c
				live = append(live, float64(s[1].Value.Uint64()))
			}
			select {
			case <-h.stopc:
				h.done <- quantile(live, 0.95)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak live heap in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

// errWindow reports that not even one operation fit in the window.
var errWindow = errors.New("no operation completed in the measured window")

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// timeSetup runs build at least 5 times, and more while the set-ups have
// taken under half a second (at most 25), and returns the last value built
// and the median build time in seconds.
func timeSetup[T any](build func() (T, error)) (T, float64, error) {
	var last T
	var secs []float64
	for len(secs) < 5 || (sum(secs) < 0.5 && len(secs) < 25) {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}
