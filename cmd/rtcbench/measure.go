package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"rtcadapt/internal/simtime"
)

// minSetups is the fewest setups a timed run takes; setup_s is their
// median.
const minSetups = 5

// minBatches is the fewest timed batches a run takes, however short its
// measuring time.
const minBatches = 3

// batchSample is one timed batch.
type batchSample struct {
	wall     time.Duration
	parts    []float64 // seconds per experiment, for the figure suite
	alloc    uint64    // bytes allocated during the batch
	liveHeap uint64    // heap in use after a GC, with the results referenced
	digest   string
}

// timedBatch runs one batch with the heap collected before and after.
func timedBatch(in *inputs, h hooks) (batchSample, error) {
	runtime.GC()
	var before, after, live runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out, err := in.batch(h)
	wall := time.Since(t0)
	if err != nil {
		return batchSample{}, err
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(out.keep)
	return batchSample{wall: wall, alloc: after.TotalAlloc - before.TotalAlloc, liveHeap: live.HeapAlloc, digest: out.digest}, nil
}

// setup builds the workload's inputs and runs one warm-up unit, returning
// the inputs and the time both took.
func setup(w workload, seed int64) (*inputs, float64, error) {
	runtime.GC()
	t0 := time.Now()
	in, err := w.build(seed)
	if err != nil {
		return nil, 0, err
	}
	if err := in.warmup(); err != nil {
		return nil, 0, err
	}
	return in, time.Since(t0).Seconds(), nil
}

// timedResult is the end-to-end outcome of one run.
type timedResult struct {
	setupS   []float64
	batches  []batchSample
	virtualS float64
	checks   checks
}

// runTimed sets the workload up, then runs untraced batches until the
// measuring time is spent, checking every batch's digest against the
// first batch and the golden digest. The figure suite's batches also time
// each experiment. The workload is set up again after every batch, so
// setup times sample the same stretch of the host's load as the batches
// do rather than one burst at the start.
func runTimed(w workload, seed int64, seconds float64, gold goldens) (timedResult, error) {
	in, setupS, err := setup(w, seed)
	if err != nil {
		return timedResult{}, err
	}
	res := timedResult{setupS: []float64{setupS}, virtualS: in.virtualS}
	want := gold.lookup(w.name, seed, "batch", in.batchSize)
	var parts []float64
	h := hooks{span: func(string) func() {
		t0 := time.Now()
		return func() { parts = append(parts, time.Since(t0).Seconds()) }
	}}
	start := time.Now()
	for len(res.batches) < minBatches || len(res.setupS) < minSetups || time.Since(start).Seconds() < seconds {
		parts = nil
		b, err := timedBatch(in, h)
		if err != nil {
			return timedResult{}, err
		}
		b.parts = parts
		first := b.digest
		if len(res.batches) > 0 {
			first = res.batches[0].digest
		}
		res.checks.expect(checkDigest(fmt.Sprintf("batch %d", len(res.batches)), b.digest, first, want))
		res.batches = append(res.batches, b)

		var d float64
		if in, d, err = setup(w, seed); err != nil {
			return timedResult{}, err
		}
		res.setupS = append(res.setupS, d)
	}
	return res, nil
}

// checkDigest compares a digest with the first one of the run and with
// the golden digest, when one is known.
func checkDigest(what, got, first, want string) error {
	if got != first {
		return fmt.Errorf("%s: digest %s differs from the run's first %s", what, got, first)
	}
	if want != "" && got != want {
		return fmt.Errorf("%s: digest %s differs from the golden %s", what, got, want)
	}
	return nil
}

// measured is one end-to-end metric of a run: the reported value and the
// samples it was reduced from.
type measured struct {
	value   float64
	samples []float64
}

// endToEnd reduces a timed run to its end-to-end metrics. setup_s,
// alloc_mb_per_batch and live_heap_mb are medians over the run's setups
// and batches. batch_s is the fastest batch: on a shared host,
// interference from other tenants only ever adds time, and it comes in
// bursts that slow whole batches by up to 1.7x, so the median of a run
// lands wherever the bursts happen to fall while the fastest of some
// thirty batches stays put. The figure suite takes the fastest run of
// each experiment and sums them, because a suite is too long for a whole
// one to miss every burst.
func (r timedResult) endToEnd() map[string]measured {
	var walls, allocs, heaps []float64
	for _, b := range r.batches {
		walls = append(walls, b.wall.Seconds())
		allocs = append(allocs, float64(b.alloc)/1e6)
		heaps = append(heaps, float64(b.liveHeap)/1e6)
	}
	batch := slices.Min(walls)
	if n := len(r.batches[0].parts); n > 0 {
		batch = 0
		for i := 0; i < n; i++ {
			fastest := math.Inf(1)
			for _, b := range r.batches {
				fastest = math.Min(fastest, b.parts[i])
			}
			batch += fastest
		}
	}
	return map[string]measured{
		"setup_s":            {median(r.setupS), r.setupS},
		"batch_s":            {batch, walls},
		"alloc_mb_per_batch": {median(allocs), allocs},
		"live_heap_mb":       {median(heaps), heaps},
	}
}

// gcCPU reads the runtime's estimate of CPU time spent in garbage
// collection and in all work that was not idle.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return v(0), v(1) - v(2)
}

// tracedResult is the per-layer outcome of one run.
type tracedResult struct {
	perLayer    map[string]float64
	ledger      map[string]float64
	experiments map[string]float64
	rounds      int
	checks      checks
	tracer      *tracer
}

// runTracedWorkload sets the workload up once, runs one untraced batch
// (with a span per experiment for the suite), then traced rounds over the
// workload's sample until the measuring time is spent. keepSpans keeps
// the spans for a Chrome trace.
func runTracedWorkload(w workload, seed int64, seconds float64, gold goldens, keepSpans bool) (tracedResult, error) {
	in, _, err := setup(w, seed)
	if err != nil {
		return tracedResult{}, err
	}
	start := time.Now()
	tr := newTracer(keepSpans)
	res := tracedResult{tracer: tr, experiments: map[string]float64{}}

	// The untraced batch: the garbage collector's CPU share, and the
	// suite's time per experiment and cell count.
	cells := 0
	var expNames []string
	var expIDs []int
	h := hooks{
		progress: func(int, int, string) { cells++ },
		span: func(name string) func() {
			id := tr.addName("experiments." + name)
			expNames, expIDs = append(expNames, name), append(expIDs, id)
			tr.begin(id)
			return tr.end
		},
	}
	gc0, cpu0 := gcCPU()
	b, err := timedBatch(in, h)
	if err != nil {
		return tracedResult{}, err
	}
	gc1, cpu1 := gcCPU()
	res.checks.expect(checkDigest("untraced batch", b.digest, b.digest, gold.lookup(w.name, seed, "batch", in.batchSize)))
	if len(expIDs) > 0 {
		var spanned float64
		for i, name := range expNames {
			s := float64(tr.total[expIDs[i]]) / 1e9
			res.experiments["experiments."+name+"_s"] = s
			spanned += s
		}
		res.experiments["experiments.cells"] = float64(cells)
		res.experiments["experiments.unattributed_frac"] = 1 - spanned/b.wall.Seconds()
	}

	// Traced rounds over the sample.
	var st roundStats
	sched := simtime.NewScheduler()
	want := gold.lookup(w.name, seed, "sample", in.sample)
	var first string
	for res.rounds == 0 || time.Since(start).Seconds() < seconds {
		d, err := tracedRound(in, &st, tr, sched)
		if err != nil {
			return tracedResult{}, err
		}
		if first == "" {
			first = d
		}
		res.checks.expect(checkDigest(fmt.Sprintf("traced round %d", res.rounds), d, first, want))
		res.rounds++
	}
	res.checks.attempted += st.checks.attempted
	res.checks.failed += st.checks.failed
	res.checks.messages = append(res.checks.messages, st.checks.messages...)

	depth := ratio(float64(st.depthSum), float64(st.events))
	ladder := schedulerLadder(int(math.Round(depth)), seed)
	outside, inside := spanCost()
	res.perLayer, res.ledger = layerMetrics(&st, tr, ladder, outside, inside)
	res.perLayer["simtime.depth_mean"] = depth
	res.perLayer["runtime.gc_cpu_frac"] = ratio(gc1-gc0, cpu1-cpu0)
	return res, nil
}

// ratio divides, reading 0/0 as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanCost measures what one span costs on a fresh tracer: the part of a
// begin/end pair that falls outside the span, and the part inside it that
// inflates the span's own duration. Keeping spans for a Chrome trace costs
// more than this, and the ledger books the difference as unattributed.
func spanCost() (outside, inside float64) {
	const n = 100_000
	t := newTracer(false)
	t.begin(spUnit)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.begin(spVideo)
		t.end()
	}
	total := float64(time.Since(t0)) / n
	t.end()
	inside = float64(t.total[spVideo]) / n
	return total - inside, inside
}

// ledgerLayers names the ledger's layers in report order.
func ledgerLayers() []string {
	return []string{"scenario", "session_setup", "session_result", "metrics", "video", "cc", "core",
		"session_rx", "rtp", "codec", "pacer", "netem", "simtime", "tracing"}
}

// layerMetrics turns the traced rounds into per-layer metrics and the
// ledger. The ledger splits the traced wall time — the sum of every unit
// span — into span self times, replay costs scaled to the run's operation
// counts, and the tracer's own cost. Every span's duration is inflated by
// the part of its own begin/end that falls inside it; that part is taken
// out of the span and booked, with the part outside, as tracing. Each
// replayed cost is taken out of the span it ran inside: codec,
// packetization, pacer, netem and scheduler work out of the event loop's
// own time, reassembly out of the receive span, and summarizing out of
// the result span. What is left is unattributed, so the layers and the
// unattributed share add up to the traced time.
func layerMetrics(st *roundStats, tr *tracer, ladderNs, spanOutside, spanInside float64) (map[string]float64, map[string]float64) {
	f := func(v int64) float64 { return float64(v) }
	self := func(id int) float64 { return f(tr.self[id]) - spanInside*f(tr.calls[id]) }
	total := func(id int) float64 { return f(tr.total[id]) - spanInside*f(tr.calls[id]) }
	var spans float64
	for id := range tr.calls {
		spans += f(tr.calls[id])
	}
	vs := st.virtualS
	flows := float64(st.flows)
	packets := float64(st.packets)

	pacerNs := ratio(f(st.pacerNs), float64(st.pacerPackets)) * packets
	pacerEvents := ratio(float64(st.pacerEvents), float64(st.pacerPackets)) * packets
	schedEvents := f(st.events) - float64(st.netemEvents) - pacerEvents
	ns := map[string]float64{
		"scenario":       self(spBuild),
		"session_setup":  self(spSetup),
		"session_result": self(spResult) - f(st.metricsNs),
		"metrics":        f(st.metricsNs),
		"video":          self(spVideo),
		"cc":             self(spCC),
		"core":           self(spCore),
		"session_rx":     self(spRx) - f(st.reassembleNs),
		"rtp":            f(st.packetizeNs + st.reassembleNs),
		"codec":          f(st.codecNs),
		"pacer":          pacerNs,
		"netem":          f(st.netemNs),
		"simtime":        ladderNs * schedEvents,
		"tracing":        (spanOutside + spanInside) * spans,
	}
	traced := f(tr.total[spUnit])
	ledger := map[string]float64{}
	attributed := 0.0
	for _, name := range ledgerLayers() {
		ledger["ledger."+name+"_frac"] = ratio(ns[name], traced)
		attributed += ns[name]
	}
	ledger["unattributed_frac"] = ratio(traced-attributed, traced)

	perCall := func(id int) float64 { return ratio(total(id), f(tr.calls[id])) }
	m := map[string]float64{
		"simtime.events_per_vs":    ratio(f(st.events), vs),
		"simtime.ns_per_event":     ladderNs,
		"netem.packets_per_vs":     ratio(packets, vs),
		"netem.ns_per_packet":      ratio(f(st.netemNs), packets),
		"netem.delivered_frac":     ratio(float64(st.delivered), packets),
		"pacer.ns_per_packet":      ratio(f(st.pacerNs), float64(st.pacerPackets)),
		"rtp.ns_per_packet":        ratio(f(st.packetizeNs+st.reassembleNs), float64(st.rtpPackets)),
		"codec.frames_per_vs":      ratio(float64(st.frames), vs),
		"codec.ns_per_frame":       ratio(f(st.codecNs), float64(st.frames)),
		"codec.skip_frac":          ratio(float64(st.skips), float64(st.frames)),
		"cc.ns_per_call":           perCall(spCC),
		"core.ns_per_call":         perCall(spCore),
		"video.ns_per_frame":       perCall(spVideo),
		"session.rx_ns_per_packet": perCall(spRx),
		"session.setup_us":         ratio(total(spSetup), flows) / 1e3,
		"session.result_us":        ratio(total(spResult), flows) / 1e3,
		"scenario.us_per_build":    ratio(total(spBuild), flows) / 1e3,
		"metrics.us_per_session":   ratio(f(st.metricsNs), flows) / 1e3,
		"obs.overhead_frac":        ratio(f(st.censusNs), f(st.untracedNs)) - 1,
		"trace_overhead_frac":      ratio(f(st.tracedNs), f(st.untracedNs)) - 1,
	}
	for k, v := range ledger {
		m[k] = v
	}
	return m, ledger
}
