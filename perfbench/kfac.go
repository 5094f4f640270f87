package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/compso"
	"compso/internal/kfac"
	"compso/internal/modelzoo"
	"compso/internal/obs"
	"compso/internal/opt"
	"compso/internal/tensor"
	"compso/internal/train"
	"compso/internal/xrand"
)

// kfacSpec is one K-FAC+COMPSO training workload: a proxy task trained on
// simulated slingshot10 workers with AggregationM 4 and the adaptive
// controller, the paper's KFAC+COMPSO method in the Figure 6 experiments.
type kfacSpec struct {
	build func(rng *rand.Rand, dataSeed int64) *modelzoo.ProxyTask
	// iters is the length of one train.Run call, a whole number of
	// eigen-refresh intervals so refresh and plain steps keep the same mix
	// in every call.
	iters int
	// maxLossRatio is the quality target: the trained model's loss on a
	// fresh evaluation set must be at most this share of the untrained
	// model's loss on the same set.
	maxLossRatio float64
}

var resnetSpec = kfacSpec{build: modelzoo.ProxyResNet, iters: 40, maxLossRatio: 0.1}

// The GPT proxy learns slowly: over 61 run seeds its loss ratio after 120
// steps ranged 0.36-0.89, so the target only requires that training lowered
// the loss.
var gptSpec = kfacSpec{build: modelzoo.ProxyGPT, iters: 120, maxLossRatio: 0.99}

// quality checks a run's trained model against the untrained model of the
// same seed on 512 evaluation samples neither was trained on.
func (s *kfacSetup) quality(seed int64, res *train.Result) error {
	task := s.task(seed)(xrand.NewSeeded(seed))
	x, y := task.Data.Sample(xrand.NewSeeded(seed^0x5eed), 512)
	before, _ := task.Loss.Loss(task.Model.Forward(x, false), y)
	after, _ := task.Loss.Loss(res.Model.Forward(x, false), y)
	if !(after <= s.spec.maxLossRatio*before) {
		return fmt.Errorf("seed %d: evaluation loss %.4f after training, %.4f before: above the %.2f target ratio",
			seed, after, before, s.spec.maxLossRatio)
	}
	return nil
}

const (
	kfacWorkers = 4
	kfacAggM    = 4
)

// iters returns the length of one train.Run call.
func (s *kfacSetup) iters(o options) int {
	if o.tiny {
		return s.spec.iters / 2
	}
	return s.spec.iters
}

// kfacEvalEvery is how many steps lie between two evaluations of the
// trajectory that the bit-identity check compares.
const kfacEvalEvery = 5

// kfacSetup is everything a K-FAC workload derives from the seed before
// timing starts.
type kfacSetup struct {
	spec     kfacSpec
	kcfg     kfac.Config
	schedule func(iters int) opt.Schedule
	batch    int
	seed     int64
}

func newKFACSetup(spec kfacSpec, seed int64) *kfacSetup {
	probe := spec.build(xrand.NewSeeded(seed), seed)
	kcfg := kfac.DefaultConfig()
	if probe.KFACDamping > 0 {
		kcfg.Damping = probe.KFACDamping
	}
	lr := probe.KFACLR
	smooth := false
	if p, err := modelzoo.ByName(probe.Name); err == nil && p.Schedule == "SmoothLR" {
		smooth = true
	}
	return &kfacSetup{
		spec: spec, kcfg: kcfg, batch: probe.Batch, seed: seed,
		schedule: func(iters int) opt.Schedule {
			if smooth {
				return &opt.SmoothLR{BaseLR: lr, MinLR: lr / 10, Warmup: iters / 20, Total: iters}
			}
			return &opt.StepLR{BaseLR: lr, Drops: []int{iters * 2 / 3}, Gamma: 0.1}
		},
	}
}

// runSeed is the seed of the i-th training run of the workload's seed.
// Every run trains a different model on different data, so a run's cost
// averages over many Kronecker factors instead of repeating one.
func (s *kfacSetup) runSeed(i int) int64 { return s.seed*1000 + int64(i) }

// task builds the proxy task of one run seed.
func (s *kfacSetup) task(seed int64) func(rng *rand.Rand) *modelzoo.ProxyTask {
	return func(rng *rand.Rand) *modelzoo.ProxyTask { return s.spec.build(rng, seed) }
}

// config returns the train.Config of one run; clock, when non-nil, wraps
// the learning-rate schedule to time each step.
func (s *kfacSetup) config(iters int, seed int64, clock *stepClock) train.Config {
	sched := s.schedule(iters)
	cfg := train.Config{
		BuildTask:    s.task(seed),
		Workers:      kfacWorkers,
		Platform:     cluster.Platform1(),
		Iters:        iters,
		Seed:         seed,
		Schedule:     sched,
		UseKFAC:      true,
		KFAC:         s.kcfg,
		StatFreq:     1,
		AggregationM: kfacAggM,
		NewCompressor: func(rank int) compress.Compressor {
			return compso.NewCompressor(nil, rank, 800+seed)
		},
		Controller: compso.DefaultController(sched, iters),
		EvalEvery:  kfacEvalEvery,
	}
	if clock != nil {
		clock.Schedule = sched
		cfg.Schedule = clock
	}
	return cfg
}

// stepClock times training steps from outside train.Run: every worker asks
// the schedule for step t's learning rate once per step, after its forward
// and backward pass, and the workers move in lockstep through the step's
// collectives, so the first ask for each t marks a step boundary.
type stepClock struct {
	opt.Schedule
	mu    sync.Mutex
	next  int
	marks []time.Time
}

func (c *stepClock) LR(t int) float64 {
	c.mu.Lock()
	if t == c.next {
		c.marks = append(c.marks, time.Now())
		c.next++
	}
	c.mu.Unlock()
	return c.Schedule.LR(t)
}

// stepsMS returns the measured step durations in milliseconds.
func (c *stepClock) stepsMS() []float64 {
	out := make([]float64, 0, len(c.marks))
	for i := 1; i < len(c.marks); i++ {
		out = append(out, ms(c.marks[i].Sub(c.marks[i-1])))
	}
	return out
}

func runKFAC(spec kfacSpec, o options, chk *checker, tr *tracer) (map[string]float64, error) {
	s, setup, err := timeSetup(func() (*kfacSetup, error) {
		s := newKFACSetup(spec, o.seed)
		// A two-step warm-up run fills the buffer pools and builds every
		// code path the timed runs use.
		_, err := train.Run(s.config(2, s.seed, nil))
		return s, err
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		return traceKFAC(s, o, chk, tr)
	}
	iters := s.iters(o)

	var first *train.Result
	var steps, comm []float64
	runs, samples, wall := 0, 0, 0.0
	deadline := time.Now().Add(o.window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		clock := &stepClock{}
		t0 := time.Now()
		res, err := train.Run(s.config(iters, s.runSeed(i), clock))
		wall += time.Since(t0).Seconds()
		if !chk.checkErr(err, "train.Run") {
			continue
		}
		if i == 0 {
			first = res
		}
		runs++
		samples += iters * s.batch * kfacWorkers
		steps = append(steps, clock.stepsMS()...)
		simComm := 0.0
		for _, v := range res.AlgSeconds {
			simComm += v
		}
		comm = append(comm, 1e3*simComm/float64(iters))
		chk.checkErr(s.quality(s.runSeed(i), res), "quality target")
	}
	if runs == 0 {
		return nil, errWindow
	}
	// After the window, the first run is repeated: its loss and accuracy
	// trajectory must come back bit-identical.
	if first != nil {
		again, err := train.Run(s.config(iters, s.runSeed(0), nil))
		if chk.checkErr(err, "train.Run rerun") {
			if o.wrongExpect {
				first.Losses[len(first.Losses)-1] += 1e-12
			}
			chk.checkErr(sameTrajectory(first, again), "bit-identical rerun")
		}
	}
	fmt.Fprintf(chk.log, "# %d train.Run calls of %d steps, %d step-time samples\n", runs, iters, len(steps))
	return map[string]float64{
		"setup_s":              setup,
		"throughput_per_s":     float64(samples) / wall,
		"latency_p50_ms":       quantile(steps, 0.50),
		"latency_p95_ms":       quantile(steps, 0.95),
		"sim_comm_ms_per_step": median(comm),
	}, nil
}

// sameTrajectory reports whether two runs of one seed produced the same
// evaluation trajectory, bit for bit.
func sameTrajectory(a, b *train.Result) error {
	if len(a.Losses) != len(b.Losses) || len(a.Accuracies) != len(b.Accuracies) {
		return fmt.Errorf("trajectory lengths differ: %d/%d vs %d/%d",
			len(a.Losses), len(a.Accuracies), len(b.Losses), len(b.Accuracies))
	}
	for i := range a.Losses {
		if a.Losses[i] != b.Losses[i] {
			return fmt.Errorf("loss at evaluation %d: %v vs %v", i, a.Losses[i], b.Losses[i])
		}
	}
	for i := range a.Accuracies {
		if a.Accuracies[i] != b.Accuracies[i] {
			return fmt.Errorf("accuracy at evaluation %d: %v vs %v", i, a.Accuracies[i], b.Accuracies[i])
		}
	}
	if a.MeanCR != b.MeanCR {
		return fmt.Errorf("mean compression ratio %v vs %v", a.MeanCR, b.MeanCR)
	}
	return nil
}

// traceKFAC is the traced run of a K-FAC workload. It replays the critical
// rank's training steps through the layers' public functions without
// collectives (the single-worker baseline), times the workload's
// collectives on its simulated cluster at its payload sizes, and reads the obs
// counters of one train.Run with a recorder attached.
func traceKFAC(s *kfacSetup, o options, chk *checker, tr *tracer) (map[string]float64, error) {
	steps := 2 * s.kcfg.InvFreq
	if o.tiny {
		steps = 2
	}
	out := map[string]float64{}

	// Replays alternate untraced and traced, so the difference of their
	// medians is the tracing overhead.
	var plain, traced []float64
	var last *replay
	deadline := time.Now().Add(o.window)
	for len(traced) == 0 || time.Now().Before(deadline) {
		for _, t := range []*tracer{nil, tr} {
			t0 := time.Now()
			r, err := replayKFAC(s, steps, t, chk)
			if err != nil {
				return nil, err
			}
			if t == nil {
				plain = append(plain, ms(time.Since(t0)))
			} else {
				traced = append(traced, ms(time.Since(t0)))
				last = r
			}
		}
	}
	replays := float64(len(traced))
	perStep := func(name string) float64 { return tr.total(name) / replays / float64(steps) }
	stepMS := perStep("train.step") - perStep("peer.kfac.RefreshEigen") -
		perStep("peer.kfac.Precondition") - perStep("peer.compress.Compress")
	out["step.replay_ms"] = stepMS
	out["dataset.sample_ms_per_step"] = perStep("dataset.Sample")
	out["nn.forward_ms_per_step"] = perStep("nn.Forward")
	out["nn.backward_ms_per_step"] = perStep("nn.Backward")
	out["kfac.accumulate_stats_ms_per_step"] = perStep("kfac.AccumulateStats")
	out["kfac.refresh_eigen_ms_per_step"] = perStep("kfac.RefreshEigen")
	out["kfac.refresh_eigen_share_pct"] = 100 * perStep("kfac.RefreshEigen") / stepMS
	out["kfac.precondition_ms_per_step"] = perStep("kfac.Precondition")
	out["kfac.eigen_refreshes"] = float64(last.refreshes)
	out["compress.compress_ms"] = median(tr.durations("compress.Compress"))
	out["compress.decompress_ms"] = median(tr.durations("compress.Decompress"))
	out["compress.mb_per_s"] = replays * float64(last.rawBytes) / (1 << 20) / (tr.total("compress.Compress") / 1e3)
	out["compress.ratio"] = float64(last.rawBytes) / float64(last.compressedBytes)
	out["obs.trace_overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)

	eig, err := traceEigenSym(last.k, tr)
	if err != nil {
		return nil, err
	}
	out["tensor.eigensym_ms"] = eig

	ar, ag := traceCollectives(s, last, tr, o)
	out["cluster.allreduce_us"] = ar
	out["cluster.allgather_us"] = ag

	// One distributed run with the obs recorder attached supplies the
	// modelled communication counters.
	iters := s.iters(o)
	cfg := s.config(iters, s.seed, nil)
	cfg.Obs = obs.NewRecorder()
	res, err := train.Run(cfg)
	if !chk.checkErr(err, "train.Run with obs") {
		return nil, err
	}
	chk.checkErr(s.quality(s.seed, res), "quality target")
	colls := 0.0
	for name, v := range res.Metrics.Counters {
		if strings.HasPrefix(name, "collective/picks/") {
			colls += v
		}
	}
	out["cluster.collectives_per_step"] = colls / float64(iters)
	out["cluster.wire_bytes_per_step"] = res.Metrics.Counters["wire/total/bytes"] / float64(iters)
	for _, cat := range []string{"grad-allreduce", "kfac-allreduce", "kfac-allgather"} {
		out["collective.sim_ms."+cat] = 1e3 * res.CommSeconds[cat] / float64(iters)
	}
	fmt.Fprintf(chk.log, "# replayed rank %d of %d, %d traced and %d untraced replays of %d steps\n",
		last.rank, kfacWorkers, len(traced), len(plain), steps)
	tr.logSelfTimes(chk.log)
	return out, nil
}

// replay is the state one replay leaves behind.
type replay struct {
	k         *kfac.KFAC
	rank      int
	refreshes int
	// rawBytes and blobBytes total the replayed rank's own groups before
	// and after compression; blobBytes is the last group's size.
	rawBytes, compressedBytes int
	blobBytes                 int
	covElems                  int
}

// criticalRank returns the rank of the simulated world whose owned layers
// cost the most to decompose (the sum of its factor dimensions cubed). Its
// step is the one the other ranks wait for.
func criticalRank(k *kfac.KFAC) int {
	best, bestCost := 0, -1
	for r := 0; r < kfacWorkers; r++ {
		cost := 0
		for _, li := range ownedLayers(k.NumLayers(), r) {
			a, g := k.FactorDims(li)
			cost += a*a*a + g*g*g
		}
		if cost > bestCost {
			best, bestCost = r, cost
		}
	}
	return best
}

// ownedLayers is train.Run's round-robin split of the K-FAC layers over
// the workers.
func ownedLayers(nLayers, rank int) []int {
	var out []int
	for i := rank; i < nLayers; i += kfacWorkers {
		out = append(out, i)
	}
	return out
}

// replayKFAC replays steps training steps of one rank of the distributed run
// through the layers' public functions, in the order train.Run calls them,
// with a span around each call. The rank is the critical one: it refreshes
// and preconditions its owned layers and compresses them as its aggregation
// group, then decompresses every rank's group. The other ranks' share of
// that work runs inside the step under "peer." spans, which the step time
// excludes; the numerics equal a one-worker run's.
func replayKFAC(s *kfacSetup, steps int, tr *tracer, chk *checker) (*replay, error) {
	task := s.task(s.seed)(xrand.NewSeeded(s.seed))
	k := kfac.New(task.Model, s.kcfg)
	comps := make([]*compress.COMPSO, kfacWorkers)
	for r := range comps {
		comps[r] = compso.NewCompressor(nil, r, 800+s.seed)
	}
	sched := s.schedule(steps)
	ctrl := compso.DefaultController(sched, steps)
	data := xrand.NewSeeded(s.seed*1000 + 7)
	r := &replay{k: k, rank: criticalRank(k)}
	n := k.NumLayers()
	for it := 0; it < steps; it++ {
		step := tr.begin("train.step", 0)
		for _, c := range comps {
			ctrl.Apply(it, c)
		}
		var x, y *tensor.Matrix
		tr.call("dataset.Sample", step, func() { x, y = task.Data.Sample(data, task.Batch) })
		var grad *tensor.Matrix
		tr.call("nn.Forward", step, func() {
			logits := task.Model.Forward(x, true)
			_, grad = task.Loss.Loss(logits, y)
		})
		tr.call("nn.Backward", step, func() {
			task.Model.ZeroGrad()
			task.Model.Backward(grad)
		})
		tr.call("kfac.AccumulateStats", step, func() { k.AccumulateStats(task.Batch) })
		var err error
		tr.call("kfac.CommitCovariances", step, func() {
			cov := k.PendingCovariances()
			r.covElems = len(cov)
			err = k.CommitCovariances(cov, 1)
		})
		if err != nil {
			return nil, err
		}
		// Each rank refreshes, preconditions and compresses its owned
		// layers; the replayed rank's calls are its own, the rest are peer
		// work.
		blobs := make([][]byte, kfacWorkers)
		lengths := make([][]int, kfacWorkers)
		for rank := range blobs {
			prefix := "peer."
			if rank == r.rank {
				prefix = ""
			}
			owned := ownedLayers(n, rank)
			if k.NeedsEigen() {
				for _, li := range owned {
					tr.call(prefix+"kfac.RefreshEigen", step, func() { err = k.RefreshEigen(li) })
					if err != nil {
						return nil, err
					}
					if rank == r.rank {
						r.refreshes++
					}
				}
			}
			grads := make([][]float32, len(owned))
			for j, li := range owned {
				tr.call(prefix+"kfac.Precondition", step, func() { grads[j], err = k.Precondition(li) })
				if err != nil {
					return nil, err
				}
				lengths[rank] = append(lengths[rank], len(grads[j]))
			}
			if len(owned) == 0 {
				continue
			}
			flat := compso.Concat(grads)
			tr.call(prefix+"compress.Compress", step, func() { blobs[rank], err = comps[rank].Compress(flat) })
			if err != nil {
				return nil, err
			}
			if rank == r.rank {
				r.rawBytes += 4 * len(flat)
				r.compressedBytes += len(blobs[rank])
				r.blobBytes = len(blobs[rank])
			}
		}
		// The replayed rank decodes every rank's group and installs it.
		for rank, blob := range blobs {
			if blob == nil {
				continue
			}
			var back []float32
			tr.call("compress.Decompress", step, func() { back, err = comps[r.rank].Decompress(blob) })
			if err != nil {
				return nil, err
			}
			parts, err := compso.Split(back, lengths[rank])
			if !chk.checkErr(err, "decompressed group") {
				return nil, err
			}
			for j, li := range ownedLayers(n, rank) {
				if err := k.SetPreconditioned(li, parts[j]); err != nil {
					return nil, err
				}
			}
		}
		tr.call("kfac.ApplyUpdate", step, func() { err = k.ApplyUpdate(sched.LR(it)) })
		if err != nil {
			return nil, err
		}
		tr.end(step)
	}
	return r, nil
}

// traceEigenSym decomposes every Kronecker factor the replay left behind
// once, with a span per tensor.EigenSym call, and returns the time to
// decompose all of them in milliseconds.
func traceEigenSym(k *kfac.KFAC, tr *tracer) (float64, error) {
	st := k.CaptureState()
	total := 0.0
	for _, m := range append(append([]*tensor.Matrix(nil), st.A...), st.G...) {
		a := m.Clone().Symmetrize()
		id := tr.begin("tensor.EigenSym", 0)
		t0 := time.Now()
		_, err := tensor.EigenSym(a)
		total += ms(time.Since(t0))
		tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// traceCollectives times, on rank 0 of the workload's slingshot10 cluster, the
// workload's gradient all-reduce, factor all-reduce and preconditioned-
// gradient all-gather at the replay's payload sizes. It returns the median
// wall time per all-reduce and per all-gather in microseconds.
func traceCollectives(s *kfacSetup, r *replay, tr *tracer, o options) (allReduceUS, allGatherUS float64) {
	reps := 50
	if o.tiny {
		reps = 3
	}
	task := s.task(s.seed)(xrand.NewSeeded(s.seed))
	params := 0
	for _, p := range task.Model.Params() {
		params += len(p.Grad.Data)
	}
	cl := cluster.New(cluster.Platform1(), kfacWorkers)
	cl.Run(func(w *cluster.Worker) {
		grad := make([]float64, params)
		cov := make([]float64, r.covElems)
		blob := make([]byte, r.blobBytes)
		for i := 0; i < reps; i++ {
			t := tr
			if w.Rank() != 0 {
				t = nil
			}
			t.call("cluster.AllReduce", 0, func() { w.AllReduce(grad, "grad-allreduce") })
			t.call("cluster.AllReduce", 0, func() { w.AllReduce(cov, "kfac-allreduce") })
			t.call("cluster.AllGather", 0, func() { w.AllGather(blob, "kfac-allgather") })
		}
	})
	return 1e3 * median(tr.durations("cluster.AllReduce")), 1e3 * median(tr.durations("cluster.AllGather"))
}
