package main

import (
	"fmt"
	"time"

	"compso/internal/cluster"
	"compso/internal/des"
	"compso/internal/train"
)

const (
	// desRanks is the replayed world size, where the hierarchical policy
	// is the one the scale sweep uses.
	desRanks = 8192
	// desIdentityRanks is the small world of the DES ≡ goroutine identity
	// leg that runs during set-up.
	desIdentityRanks = 16
)

// desSetup is the program one des-scale run replays.
type desSetup struct {
	cfg   cluster.Config
	prog  des.Program
	info  train.CommSimInfo
	steps [][]des.Op // prog split at each KindSetStep
}

// desSimConfig is the replayed program: one K-FAC statistics interval
// (StatFreq 10) per replay, so every replay has one cold first step that
// also refreshes the factors, and nine plain steps.
func desSimConfig(o options) train.CommSimConfig {
	steps := 10
	if o.tiny {
		steps = 2
	}
	return train.CommSimConfig{Model: "ResNet-50", Compressor: "compso", Steps: steps, KFAC: true, Seed: o.seed}
}

func desRanksFor(o options) int {
	if o.tiny {
		return 256
	}
	return desRanks
}

func newDESSetup(o options, chk *checker, tr *tracer) (*desSetup, error) {
	cfg := cluster.Platform1()
	cfg.Collective = "hierarchical"
	s := &desSetup{cfg: cfg}
	var err error
	id := tr.begin("train.BuildCommProgram", 0)
	s.prog, s.info, err = train.BuildCommProgram(desSimConfig(o), desRanksFor(o))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for i, op := range s.prog {
		if op.Kind == des.KindSetStep || i == 0 {
			s.steps = append(s.steps, nil)
		}
		s.steps[len(s.steps)-1] = append(s.steps[len(s.steps)-1], op)
	}
	chk.checkErr(identityLeg(o, cfg), "DES ≡ goroutine identity")
	return s, nil
}

// identityLeg replays a reduced-size program on the goroutine engine and
// on the DES at a small world under the workload's platform and policy,
// and requires every rank's clock and per-category seconds to agree bit
// for bit. The payloads are scaled down because the goroutine engine moves
// real buffers; identity needs only the same program on both engines.
func identityLeg(o options, cfg cluster.Config) error {
	sc := desSimConfig(o)
	sc.Steps = 2
	sc.ElemScale = 1.0 / 1024
	prog, _, err := train.BuildCommProgram(sc, desIdentityRanks)
	if err != nil {
		return err
	}
	workers := des.RunOnCluster(cluster.New(cfg, desIdentityRanks), prog)
	defer cluster.ReleaseTraces(workers)
	w := des.NewWorld(cfg, desIdentityRanks)
	defer w.Release()
	des.RunOnWorld(w, prog)
	for r, wk := range workers {
		if o.wrongExpect && r == 0 {
			return fmt.Errorf("rank 0: deliberately wrong expectation")
		}
		if w.TimeOf(r) != wk.Time() {
			return fmt.Errorf("rank %d: DES clock %v, goroutine engine %v", r, w.TimeOf(r), wk.Time())
		}
		got, want := w.StatsOf(r), wk.Stats()
		if len(got) != len(want) {
			return fmt.Errorf("rank %d: %d stat categories, goroutine engine %d", r, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				return fmt.Errorf("rank %d %s: DES %v, goroutine engine %v", r, k, got[k], v)
			}
		}
	}
	return nil
}

// desReplay is what one replay of the program measured.
type desReplay struct {
	stepMS   []float64
	wallMS   float64
	makespan float64
	colls    int64
	commSec  float64
	perRank  float64
}

// replayDES replays the program step by step on a fresh world.
func replayDES(s *desSetup, p int, tr *tracer) desReplay {
	id := tr.begin("des.NewWorld", 0)
	w := des.NewWorld(s.cfg, p)
	tr.end(id)
	defer w.Release()
	var r desReplay
	t0 := time.Now()
	for _, step := range s.steps {
		ts := time.Now()
		id := tr.begin("des.RunOnWorld", 0)
		des.RunOnWorld(w, step)
		tr.end(id)
		r.stepMS = append(r.stepMS, ms(time.Since(ts)))
	}
	r.wallMS = ms(time.Since(t0))
	r.makespan = w.MaxTime()
	r.colls = w.Collectives()
	for _, v := range w.MergedAlgSeconds() {
		r.commSec += v
	}
	r.commSec /= float64(p)
	r.perRank = float64(w.Footprint()) / float64(p)
	return r
}

func runDES(o options, chk *checker, tr *tracer) (map[string]float64, error) {
	s, setup, err := timeSetup(func() (*desSetup, error) { return newDESSetup(o, chk, tr) })
	if err != nil {
		return nil, err
	}
	p := desRanksFor(o)
	var replays []desReplay
	var plain []float64
	deadline := time.Now().Add(o.window)
	// At least two replays: the second checks the first's makespan and
	// collective count.
	for len(replays) < 2 || time.Now().Before(deadline) {
		if tr != nil && len(plain) <= len(replays) {
			// The traced run alternates untraced and traced replays.
			plain = append(plain, replayDES(s, p, nil).wallMS)
			continue
		}
		r := replayDES(s, p, tr)
		chk.attempt()
		if len(replays) > 0 {
			ref := replays[0]
			if o.wrongExpect {
				ref.makespan *= 1 + 1e-9
			}
			chk.check(r.makespan == ref.makespan && r.colls == ref.colls,
				"replay makespan %v / %d collectives, first replay %v / %d", r.makespan, r.colls, ref.makespan, ref.colls)
		}
		replays = append(replays, r)
	}
	var stepMS, wall []float64
	for _, r := range replays {
		stepMS = append(stepMS, r.stepMS...)
		wall = append(wall, r.wallMS)
	}
	steps := float64(len(s.steps))
	fmt.Fprintf(chk.log, "# %d replays of %d steps at %d ranks, %d step-time samples, makespan %.6f s\n",
		len(replays), len(s.steps), p, len(stepMS), replays[0].makespan)
	if tr == nil {
		return map[string]float64{
			"setup_s":              setup,
			"throughput_per_s":     steps / (median(wall) / 1e3),
			"latency_p50_ms":       quantile(stepMS, 0.50),
			"latency_p95_ms":       quantile(stepMS, 0.95),
			"sim_comm_ms_per_step": 1e3 * replays[0].commSec / steps,
		}, nil
	}
	out := map[string]float64{
		"des.collectives_per_s":  float64(replays[0].colls) / (median(wall) / 1e3),
		"des.bytes_per_worker":   replays[0].perRank,
		"des.program_build_ms":   median(tr.durations("train.BuildCommProgram")),
		"compress.ratio":         s.info.Ratio,
		"obs.trace_overhead_pct": 100 * (median(wall) - median(plain)) / median(plain),
	}
	tr.logSelfTimes(chk.log)
	return out, nil
}
