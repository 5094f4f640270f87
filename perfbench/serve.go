package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"compso/internal/cluster"
	"compso/internal/compress"
	"compso/internal/modelzoo"
	"compso/internal/serve"
	"compso/internal/serve/loadgen"
	"compso/internal/xrand"
)

const (
	// serveClients is the closed loop's size: each client is one session
	// that sends its next round trip only after the previous one returned.
	// It equals the host's core count, so clients do not queue on CPUs.
	serveClients = 2
	// serveMaxElems caps a request's gradient length, as compso-serve's
	// load generator does.
	serveMaxElems = 1 << 18
	// serveEB is the sessions' COMPSO filter and quantizer bound.
	serveEB = 4e-3
	// serveSlack absorbs float32 rounding in the dequantized values, as the
	// compress package's own bound tests do.
	serveSlack = 1e-7
	serveURL   = "http://compso-serve"
)

// serveSetup is the server, its sessions and the ready-made request bodies
// one serve-compso run uses.
type serveSetup struct {
	srv      *serve.Server
	client   *http.Client
	sessions []string
	// bodies holds one little-endian float32 gradient per ResNet-50 layer,
	// in seed order: every layer size appears once per cycle, so the
	// heavy-tailed size mix is the same for every seed.
	bodies [][]byte
}

func newServeSetup(o options) (*serveSetup, error) {
	prof := modelzoo.ResNet50()
	rng := xrand.NewSeeded(o.seed)
	order := rng.Perm(len(prof.Layers))
	if o.tiny {
		order = order[:4]
	}
	s := &serveSetup{}
	for _, layer := range order {
		grad := prof.SyntheticGradient(rng, layer, serveMaxElems)
		body := make([]byte, 4*len(grad))
		for i, v := range grad {
			binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(v))
		}
		s.bodies = append(s.bodies, body)
	}
	s.srv = serve.New(serve.Config{})
	s.client = &http.Client{Transport: loadgen.HandlerTransport(s.srv.Handler())}
	for i := 0; i < serveClients; i++ {
		id, err := s.createSession(o.seed + int64(i))
		if err != nil {
			return nil, err
		}
		s.sessions = append(s.sessions, id)
		// One warm-up round trip per session.
		if _, _, err := s.roundTrip(id, s.bodies[i%len(s.bodies)]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *serveSetup) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

func (s *serveSetup) createSession(seed int64) (string, error) {
	cfg, err := json.Marshal(serve.SessionConfig{
		Tenant: "bench", Compressor: "compso", EBFilter: serveEB, EBQuant: serveEB, Seed: seed,
	})
	if err != nil {
		return "", err
	}
	resp, code, err := s.post("/v1/sessions", cfg, "application/json")
	if err != nil {
		return "", err
	}
	if code != http.StatusCreated {
		return "", fmt.Errorf("create session: status %d: %s", code, resp)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		return "", fmt.Errorf("create session: %w", err)
	}
	return info.ID, nil
}

func (s *serveSetup) post(path string, body []byte, contentType string) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, serveURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// statusError is a non-200 response to a data-plane request.
type statusError struct {
	op   string
	code int
	body []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s: status %d: %.200s", e.op, e.code, e.body)
}

// roundTrip compresses body in session id and decompresses the blob it got
// back, returning the blob and the restored float32 bytes.
func (s *serveSetup) roundTrip(id string, body []byte) (blob, restored []byte, err error) {
	blob, code, err := s.post("/v1/sessions/"+id+"/compress", body, "application/octet-stream")
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, &statusError{"compress", code, blob}
	}
	restored, code, err = s.post("/v1/sessions/"+id+"/decompress", blob, "application/x-compso-blob")
	if err != nil {
		return nil, nil, err
	}
	if code != http.StatusOK {
		return nil, nil, &statusError{"decompress", code, restored}
	}
	return blob, restored, nil
}

// verify checks every restored value against the value sent, within the
// session's COMPSO error bound.
func verify(sent, restored []byte, bound float64) error {
	if len(restored) != len(sent) {
		return fmt.Errorf("restored %d bytes, sent %d", len(restored), len(sent))
	}
	for i := 0; i < len(sent); i += 4 {
		a := math.Float32frombits(binary.LittleEndian.Uint32(sent[i:]))
		b := math.Float32frombits(binary.LittleEndian.Uint32(restored[i:]))
		if d := math.Abs(float64(a) - float64(b)); !(d <= bound+serveSlack) {
			return fmt.Errorf("value %d: sent %g, restored %g, error %g above bound %g", i/4, a, b, d, bound)
		}
	}
	return nil
}

// rtSample is one completed round trip.
type rtSample struct {
	ms         float64
	in, out    int
	commMS     float64
	traced     bool
	libC, libD float64 // library compress and decompress of the same payload
}

func runServe(o options, chk *checker, tr *tracer) (map[string]float64, error) {
	var prev *serveSetup
	s, setup, err := timeSetup(func() (*serveSetup, error) {
		if prev != nil {
			if err := prev.close(); err != nil {
				return nil, err
			}
		}
		var err error
		prev, err = newServeSetup(o)
		return prev, err
	})
	if err != nil {
		return nil, err
	}
	defer s.close()
	bound := serveEB
	if o.wrongExpect {
		bound = 0
	}

	out := map[string]float64{}
	if tr != nil {
		for i := 0; i < 20; i++ {
			id := tr.begin("serve.CreateSession", 0)
			sid, err := s.createSession(o.seed + 100 + int64(i))
			tr.end(id)
			if !chk.checkErr(err, "create session") {
				continue
			}
			req, _ := http.NewRequest(http.MethodDelete, serveURL+"/v1/sessions/"+sid, nil)
			if resp, err := s.client.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		out["serve.session_create_ms"] = median(tr.durations("serve.CreateSession"))
	}

	platform := cluster.Platform1()
	var mu sync.Mutex
	var samples []rtSample
	shed := 0
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(o.window)
	// Every client completes at least one cycle over the bodies, two in the
	// traced run (one untraced, one traced).
	minRoundTrips := len(s.bodies)
	if tr != nil {
		minRoundTrips *= 2
	}
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lib compress.Compressor
			if tr != nil {
				var err error
				lib, err = compress.ByName("compso", compress.Options{Seed: o.seed + int64(c), EBFilter: serveEB, EBQuant: serveEB})
				if !chk.checkErr(err, "library compressor") {
					return
				}
			}
			for i := 0; i < minRoundTrips || time.Now().Before(deadline); i++ {
				body := s.bodies[(i+c)%len(s.bodies)]
				// The traced run alternates untraced and traced cycles over
				// the bodies, so both see the same size mix.
				traced := tr != nil && (i/len(s.bodies))%2 == 1
				var t *tracer
				if traced {
					t = tr
				}
				id := t.begin("serve.RoundTrip", 0)
				t0 := time.Now()
				blob, restored, err := s.roundTrip(s.sessions[c], body)
				rt := ms(time.Since(t0))
				t.end(id)
				if se, ok := err.(*statusError); ok && se.code == http.StatusTooManyRequests {
					mu.Lock()
					shed++
					mu.Unlock()
				}
				if !chk.checkErr(err, "round trip") {
					continue
				}
				chk.checkErr(verify(body, restored, bound), "decompressed gradient")
				smp := rtSample{ms: rt, in: len(body), out: len(blob), traced: traced,
					commMS: 1e3 * platform.AllGatherTime(len(blob), kfacWorkers)}
				if lib != nil {
					smp.libC, smp.libD, err = libRoundTrip(lib, body, t)
					chk.checkErr(err, "library round trip")
				}
				mu.Lock()
				samples = append(samples, smp)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if len(samples) == 0 {
		return nil, errWindow
	}
	var lat, comm, handler, libC, libD, traced []float64
	in, outB, libIn := 0, 0, 0
	for _, smp := range samples {
		if smp.traced {
			traced = append(traced, smp.ms)
			handler = append(handler, smp.ms-smp.libC-smp.libD)
			libC = append(libC, smp.libC)
			libD = append(libD, smp.libD)
			libIn += smp.in
		} else {
			lat = append(lat, smp.ms)
			comm = append(comm, smp.commMS)
		}
		in += smp.in
		outB += smp.out
	}
	fmt.Fprintf(chk.log, "# %d round trips from %d clients (closed loop), %d untraced latency samples\n",
		len(samples), serveClients, len(lat))
	if tr == nil {
		out["setup_s"] = setup
		out["throughput_per_s"] = float64(len(samples)) / wall
		out["latency_p50_ms"] = quantile(lat, 0.50)
		out["latency_p95_ms"] = quantile(lat, 0.95)
		out["sim_comm_ms_per_step"] = median(comm)
		return out, nil
	}
	out["compress.compress_ms"] = median(libC)
	out["compress.decompress_ms"] = median(libD)
	out["compress.mb_per_s"] = float64(libIn) / (1 << 20) / (sum(libC) / 1e3)
	out["compress.ratio"] = float64(in) / float64(outB)
	out["serve.handler_ms"] = median(handler)
	out["serve.shed"] = float64(shed)
	out["obs.trace_overhead_pct"] = 100 * (median(traced) - median(lat)) / median(lat)
	tr.logSelfTimes(chk.log)
	return out, nil
}

// libRoundTrip compresses and decompresses body with the library
// compressor, returning each call's time in milliseconds.
func libRoundTrip(lib compress.Compressor, body []byte, tr *tracer) (cMS, dMS float64, err error) {
	vals := make([]float32, len(body)/4)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	id := tr.begin("compress.Compress", 0)
	t0 := time.Now()
	blob, err := lib.Compress(vals)
	cMS = ms(time.Since(t0))
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	id = tr.begin("compress.Decompress", 0)
	t0 = time.Now()
	back, err := lib.Decompress(blob)
	dMS = ms(time.Since(t0))
	tr.end(id)
	if err == nil && len(back) != len(vals) {
		err = fmt.Errorf("library decompressed %d values, want %d", len(back), len(vals))
	}
	return cMS, dMS, err
}
