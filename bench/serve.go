package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/hpcgo/rcsfista/internal/load"
	"github.com/hpcgo/rcsfista/internal/rng"
	"github.com/hpcgo/rcsfista/internal/serve"
)

// serveSpec defines a /fit workload: closed loop, Clients callers each
// waiting for their reply, against an in-process server on a loopback
// listener.
type serveSpec struct {
	Dataset string
	M, D    int
	// DataSeed fixes the instance: the rounds a cold fit needs move
	// with it, and so does the time a path takes to warm up.
	DataSeed         uint64
	Workers, Clients int
	// Points lambda ratios on a geometric grid RatioHi -> RatioLo form
	// the request cycle.
	Points           int
	RatioHi, RatioLo float64
	// Warm=true walks the grid in path order with the warm-start cache
	// on; false visits it in seed-shuffled order with the cache off.
	Warm bool
}

func (s *serveSpec) datasetRef() serve.DatasetRef {
	return serve.DatasetRef{Name: s.Dataset, Samples: s.M, Features: s.D, Seed: s.DataSeed}
}

// serveInstance is one running server with its request cycle.
type serveInstance struct {
	spec   *serveSpec
	srv    *serve.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	cycle  []serve.FitRequest
	// first is where client 0 enters the cycle, drawn from the seed.
	first  int
	setupS float64
}

// fitSample is one timed /fit round trip as the client saw it.
type fitSample struct {
	start  int64 // trace clock
	lat    time.Duration
	status int
	bytes  int
	resp   serve.FitResponse
	err    error
	traced bool
}

// ok reports whether the fit is a useful outcome: a 200 carrying a
// converged, untruncated solve.
func (f *fitSample) ok() bool {
	return f.err == nil && f.status == http.StatusOK && !f.resp.Partial && f.resp.Converged
}

// setup starts a fresh server, builds the cycle (from the seed: the
// visiting order of a cold grid, and where the clients enter it) and runs
// the untimed warm-up: two path cycles on a warm workload (the first
// fills the lambda-path cache, the second confirms the hits), one fit
// on a cold one (dataset load and step-size estimate).
func (s *serveSpec) setup(seed uint64) (*serveInstance, error) {
	t := time.Now()
	in := &serveInstance{spec: s, served: make(chan error, 1)}
	in.srv = serve.New(serve.Config{Workers: s.Workers, Procs: benchProcs, Transport: "chan"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.http = &http.Server{Handler: in.srv.Handler()}
	go func() { in.served <- in.http.Serve(ln) }()
	in.base = "http://" + ln.Addr().String()
	in.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.Clients}}

	sched := load.BuildSchedule(load.Config{
		Requests: s.Points, Seed: seed, Dataset: s.datasetRef(),
		Sweep: true, SweepLen: s.Points, RatioHi: s.RatioHi, RatioLo: s.RatioLo,
		Procs: benchProcs, Warm: s.Warm,
	})
	order := make([]int, len(sched))
	for i := range order {
		order[i] = i
	}
	src := rng.New(seed)
	if !s.Warm {
		src.Shuffle(order)
	}
	in.first = src.Intn(len(order))
	for _, i := range order {
		in.cycle = append(in.cycle, sched[i].Fit)
	}

	warmups := 1
	if s.Warm {
		warmups = 2 * len(in.cycle)
	}
	for i := 0; i < warmups; i++ {
		if f := in.fit(&in.cycle[i%len(in.cycle)]); !f.ok() {
			in.stop()
			return nil, fmt.Errorf("warm-up fit %d: status %d err %v partial %v converged %v",
				i, f.status, f.err, f.resp.Partial, f.resp.Converged)
		}
	}
	in.setupS = time.Since(t).Seconds()
	return in, nil
}

// stop shuts the listener down, waits for the serve goroutine and
// drains the worker pool.
func (in *serveInstance) stop() {
	// Client side first: a connection the transport dialled and never
	// used would otherwise hold Shutdown for its 5 s new-connection grace.
	in.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = in.http.Shutdown(ctx) // on timeout the listener is closed anyway
	<-in.served
	in.srv.Close()
}

// fit is one operation as a client pays for it: marshal the request,
// POST it, read and decode the reply.
func (in *serveInstance) fit(req *serve.FitRequest) (f fitSample) {
	t := time.Now()
	defer func() { f.lat = time.Since(t) }()
	body, err := json.Marshal(req)
	if err != nil {
		f.err = err
		return f
	}
	resp, err := in.client.Post(in.base+"/fit", "application/json", bytes.NewReader(body))
	if err != nil {
		f.err = err
		return f
	}
	defer resp.Body.Close()
	f.status = resp.StatusCode
	raw, err := io.ReadAll(resp.Body)
	f.bytes = len(raw)
	if err == nil && f.status == http.StatusOK {
		err = json.Unmarshal(raw, &f.resp)
	}
	f.err = err
	return f
}

// window runs the closed loop for the given time: every client walks
// the cycle from its own offset and sends its next fit when the
// previous reply is decoded. In a traced pass every other fit records
// its spans.
func (in *serveInstance) window(d time.Duration, minOps int, tr *tracer) ([]fitSample, time.Duration) {
	perClient := make([][]fitSample, in.spec.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			at := in.first + c*len(in.cycle)/in.spec.Clients
			for i := 0; i < minOps || time.Since(start) < d; i++ {
				var clk int64
				if tr != nil {
					clk = tr.now()
				}
				f := in.fit(&in.cycle[(at+i)%len(in.cycle)])
				f.start, f.traced = clk, tr != nil && i%2 == 1
				perClient[c] = append(perClient[c], f)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []fitSample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all, elapsed
}

// runServe runs one pass of a /fit workload: setupReps fresh servers,
// each serving its share of the window; the last one also answers the
// verification requests.
func runServe(w workload, seed uint64, window time.Duration, minOps int, traced bool, tr *tracer) (*report, error) {
	r := newReport(w.Name, traced)
	if !traced {
		tr = nil
	}
	var in *serveInstance
	var setups []float64
	var samples []fitSample
	var rates []float64 // useful fits per second of each window share
	var mem memDelta
	for rep := 0; rep < setupReps; rep++ {
		if in != nil {
			in.stop()
		}
		var err error
		if in, err = w.sv.setup(seed); err != nil {
			return nil, err
		}
		setups = append(setups, in.setupS)
		before := readMem()
		got, took := in.window(window/setupReps, minOps, tr)
		mem = mem.add(readMem().sub(before))
		samples = append(samples, got...)
		good := 0
		for i := range got {
			if got[i].ok() {
				good++
			}
		}
		rates = append(rates, float64(good)/took.Seconds())
	}
	defer in.stop()

	var lat []float64
	for i := range samples {
		f := &samples[i]
		r.Attempted++
		if !f.ok() {
			r.fail("fit %d: status %d err %v partial %v converged %v", i, f.status, f.err, f.resp.Partial, f.resp.Converged)
			continue
		}
		lat = append(lat, f.lat.Seconds()*1e3)
	}
	ref, err := in.verify(r)
	if err != nil {
		return nil, err
	}

	if !traced {
		r.setSample("op_p50_ms", lat)
		r.setSample("ops_per_s", rates)
		r.setSample("setup_s", setups)
		return r, nil
	}
	in.reportTraced(r, tr, samples, mem, ref)
	return r, nil
}
