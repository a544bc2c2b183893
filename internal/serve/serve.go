// Package serve is the online inference tier: it answers predict requests
// against the LIVE parameters of a training run — the natural consumer of
// the paper's bounded-staleness read guarantee. Requests are coalesced by a
// small batcher (max-batch + max-delay) into one blocked-GEMM forward chain
// (nn.ForwardBatch) per batch, computed against a zero-copy leased view of
// the published chain store (paramvec.Lease via sgd.Running.ReadParams), so
// serving a batch costs one leased read regardless of batch size and never
// blocks the workers' LAU-SPC publishes.
//
// Every prediction carries the read's consistency metadata: provably
// consistent vs. possibly mixed-version (the seqlock classification),
// whether the lease outlived its store (the run ended and retired the store
// mid-read), and whether the run had already finished (immutable final
// parameters). Mixed-version views are legitimate under the paper's
// model — but they are always labeled; torn reads are impossible by
// construction (leased buffers are immutable once published).
//
// Config.Store selects between two live read paths: StoreLeased (above) and
// StoreReadFront — an RCU double-buffered snapshot store
// (paramvec.ReadFront) whose refresher amortizes ONE consistent snapshot
// across all concurrent readers, bounded by a ReadLeash (the read-path
// mirror of the paper's persistence bound Tp). Snapshot reads are always
// consistent and carry their measured staleness.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"leashedsgd/internal/faultinject"
	"leashedsgd/internal/metrics"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/sgd"
	"leashedsgd/internal/tensor"
)

// Source supplies parameter reads to the server. *sgd.Running is the live
// source (serve-while-train); StaticSource serves fixed parameters.
type Source interface {
	// Dim is the flat parameter dimension.
	Dim() int
	// ReadParams runs fn against a current parameter view and labels the
	// read; see sgd.Running.ReadParams for the contract.
	ReadParams(l *paramvec.Lease, scratch []float64, fn func(paramvec.View)) paramvec.ReadMeta
}

// The live training run and the read-front snapshot store satisfy Source.
var (
	_ Source = (*sgd.Running)(nil)
	_ Source = (*paramvec.ReadFront)(nil)
)

// StaticSource serves a fixed parameter vector (a checkpoint, or a finished
// run's FinalParams) through the Source interface. Reads are always
// consistent and labeled Final.
type StaticSource []float64

// Dim returns the parameter dimension.
func (s StaticSource) Dim() int { return len(s) }

// ReadParams serves the fixed vector through the caller's scratch buffer
// (grown only if undersized — the dispatcher pre-sizes it once, so the
// steady state stays allocation-free, same as the live copy path) and labels
// the read Copied: fn gets a private staging copy, never the source slice,
// so a fn that writes through the view cannot corrupt the checkpoint.
func (s StaticSource) ReadParams(_ *paramvec.Lease, scratch []float64, fn func(paramvec.View)) paramvec.ReadMeta {
	if len(scratch) < len(s) {
		scratch = make([]float64, len(s))
	}
	buf := scratch[:len(s)]
	copy(buf, s)
	fn(paramvec.FlatView(buf))
	return paramvec.ReadMeta{Consistent: true, Final: true, Copied: true, Chains: 1}
}

// Store kinds for Config.Store.
const (
	// StoreLeased reads the live parameters through per-chain seqlock
	// leases (zero-copy; reads may be labeled mixed-version under publish
	// pressure). The default.
	StoreLeased = "leased"
	// StoreReadFront reads through an RCU double-buffered snapshot store:
	// every read is one atomic pointer load of an amortized consistent
	// snapshot at most Leash behind the live store.
	StoreReadFront = "readfront"
)

// Config are the batcher knobs.
type Config struct {
	// MaxBatch is the largest number of requests coalesced into one
	// forward pass. Default 32.
	MaxBatch int
	// MaxDelay is how long the batcher waits for a batch to fill after
	// the first request arrives — the latency the tail of a batch pays to
	// amortize the leased read and the GEMM chain. Default 2ms; negative
	// disables waiting (dispatch immediately with whatever is queued).
	MaxDelay time.Duration
	// Queue is the pending-request buffer size. Default 256.
	Queue int
	// Store selects the parameter read path: StoreLeased (default) or
	// StoreReadFront. StoreReadFront requires the live training run
	// (*sgd.Running) as the source; the server owns the front and closes
	// it on Close.
	Store string
	// Leash bounds the staleness of StoreReadFront snapshots; zero takes
	// the paramvec.ReadLeash defaults (MaxAge 2ms). Ignored for
	// StoreLeased.
	Leash paramvec.ReadLeash
	// Deadline is the per-request time budget from enqueue to dispatch: a
	// request still queued past it is answered ErrDeadline instead of
	// being served a prediction its client already gave up on. 0 disables.
	Deadline time.Duration
	// FaultInjector, when non-nil, injects deterministic faults into the
	// dispatcher (faultinject.ServeDispatch: per-batch stalls modeling a
	// slow parameter source or GEMM). Nil in production — the disabled
	// path is one pointer check per batch.
	FaultInjector *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.Queue <= 0 {
		c.Queue = 256
	}
	if c.Store == "" {
		c.Store = StoreLeased
	}
	return c
}

// Prediction is one answered request: the argmax class, the softmax
// distribution, and the consistency label of the parameter read that
// produced it.
type Prediction struct {
	Class int       `json:"class"`
	Probs []float64 `json:"probs"`
	// Consistent: the read was provably one global parameter state.
	Consistent bool `json:"consistent"`
	// RetiredEpoch: the lease outlived its store (the run ended mid-read);
	// the values were valid but describe a retired store.
	RetiredEpoch bool `json:"retired_epoch,omitempty"`
	// Final: served from the immutable post-training parameters.
	Final bool `json:"final,omitempty"`
	// Copied: served through a snapshot copy (non-leased algorithms).
	Copied bool `json:"copied,omitempty"`
	// Snapshot: served from a ReadFront snapshot (Config.Store
	// "readfront") — one amortized consistent copy shared by all
	// concurrent readers, with its measured staleness below.
	Snapshot bool `json:"snapshot,omitempty"`
	// StalenessUpdates is the snapshot's lag behind the live store in
	// published updates as the front's refresher last measured it — a
	// lower bound at read time (snapshot reads only).
	StalenessUpdates int64 `json:"staleness_updates,omitempty"`
	// StalenessAge is the wall time since the snapshot was last known
	// current (snapshot reads only).
	StalenessAge time.Duration `json:"staleness_age_ns,omitempty"`
	// Chains the leased view spanned (1 = flat).
	Chains int `json:"chains"`
	// Batch is the coalesced batch size this request was served in.
	Batch int `json:"batch"`
}

// ErrClosed is returned by Predict after Close.
var ErrClosed = errors.New("serve: server closed")

type request struct {
	x    []float64
	enq  time.Time
	resp chan result
}

type result struct {
	pred Prediction
	err  error
}

// respPool recycles the one-slot reply channels. A request's channel sees
// exactly one send (dispatch, expiry or drain) and one receive (Predict), so
// it is empty again when Predict returns. A fresh channel per request was
// 208 of the 384 bytes a predict allocated — garbage that scales with the
// predict rate.
var respPool = sync.Pool{New: func() any { return make(chan result, 1) }}

// Server is the request-coalescing inference server. One dispatcher
// goroutine owns the workspace, the lease and the scratch buffer; any
// number of goroutines may call Predict concurrently.
type Server struct {
	net *nn.Network
	src Source
	cfg Config

	// front is the server-owned snapshot store when cfg.Store is
	// StoreReadFront (src is then the front itself); closed with the
	// server.
	front *paramvec.ReadFront

	mu     sync.RWMutex // closed vs. in-flight Predict enqueues
	closed bool
	reqs   chan request
	quit   chan struct{}
	wg     sync.WaitGroup

	stats   serverStats
	degrade degradeState
}

// New starts a server answering predictions for net with parameters from
// src. With Config.Store == StoreReadFront, src must be the live run
// (*sgd.Running); the server reads through a snapshot front it owns and
// closes.
func New(net *nn.Network, src Source, cfg Config) (*Server, error) {
	if net.ParamCount() != src.Dim() {
		return nil, fmt.Errorf("serve: network has %d parameters, source %d", net.ParamCount(), src.Dim())
	}
	cfg = cfg.withDefaults()
	s := &Server{
		net:  net,
		src:  src,
		cfg:  cfg,
		reqs: make(chan request, cfg.Queue),
		quit: make(chan struct{}),
	}
	switch cfg.Store {
	case StoreLeased:
	case StoreReadFront:
		f, ok := src.(*sgd.Running)
		if !ok {
			return nil, fmt.Errorf("serve: store %q requires a live-run source, got %T", cfg.Store, src)
		}
		rf, err := f.Front(cfg.Leash)
		if err != nil {
			return nil, err
		}
		s.front = rf
		s.src = rf
	default:
		return nil, fmt.Errorf("serve: unknown store %q (want %q or %q)", cfg.Store, StoreLeased, StoreReadFront)
	}
	s.stats.lat = metrics.NewHist(latencyBound)
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// Close stops the dispatcher (and the server-owned snapshot front, if any).
// In-flight and queued requests are answered with ErrClosed; Predict calls
// after Close return ErrClosed immediately.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
	if s.front != nil {
		s.front.Close()
	}
}

// Predict answers one request, blocking until its batch is served. Safe for
// concurrent use.
func (s *Server) Predict(x []float64) (Prediction, error) {
	if len(x) != s.net.InDim() {
		return Prediction{}, fmt.Errorf("serve: input has %d values, want %d", len(x), s.net.InDim())
	}
	resp := respPool.Get().(chan result)
	defer respPool.Put(resp)
	r := request{x: x, enq: time.Now(), resp: resp}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Prediction{}, ErrClosed
	}
	// Enqueue under the read lock: Close flips closed before closing
	// quit, so the dispatcher is still draining while any send is in
	// flight. The send never blocks — a full queue sheds the request
	// (fail fast beats queueing without bound: the client gets an
	// immediate retry signal and the queued requests keep bounded
	// latency).
	select {
	case s.reqs <- r:
	default:
		s.mu.RUnlock()
		s.degrade.noteShed()
		return Prediction{}, ErrOverloaded
	}
	s.mu.RUnlock()
	out := <-r.resp
	return out.pred, out.err
}

// dispatch is the batcher loop: block for the first request, then coalesce
// until MaxBatch or MaxDelay, serve the batch through one leased read and
// one ForwardBatch, reply per request.
func (s *Server) dispatch() {
	defer s.wg.Done()
	ws := s.net.NewWorkspace()
	var lease paramvec.Lease
	scratch := make([]float64, s.src.Dim()) // copy-read staging (non-leased sources)
	pend := make([]request, 0, s.cfg.MaxBatch)
	xs := make([][]float64, 0, s.cfg.MaxBatch)
	var timer *time.Timer
	// One closure for the dispatcher's lifetime: built per batch it (and the
	// logits header it captures) would be two heap objects per predict.
	var logits tensor.Mat
	forward := func(pv paramvec.View) { logits = s.net.ForwardBatch(pv, xs, ws) }
	for {
		pend = pend[:0]
		select {
		case r := <-s.reqs:
			pend = append(pend, r)
		case <-s.quit:
			s.drain(pend)
			return
		}
		if s.cfg.MaxDelay > 0 && len(pend) < s.cfg.MaxBatch {
			if timer == nil {
				timer = time.NewTimer(s.cfg.MaxDelay)
			} else {
				timer.Reset(s.cfg.MaxDelay)
			}
		collect:
			for len(pend) < s.cfg.MaxBatch {
				select {
				case r := <-s.reqs:
					pend = append(pend, r)
				case <-timer.C:
					break collect
				case <-s.quit:
					s.drain(pend)
					return
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		} else {
			// No coalescing delay: take whatever is already queued.
			for len(pend) < s.cfg.MaxBatch {
				select {
				case r := <-s.reqs:
					pend = append(pend, r)
				default:
					goto serve
				}
			}
		}
	serve:
		if inj := s.cfg.FaultInjector; inj != nil {
			if f := inj.Decide(faultinject.ServeDispatch); f.Kind == faultinject.KindStall {
				time.Sleep(f.Stall)
			}
		}
		pend = s.expireStale(pend, time.Now())
		if len(pend) == 0 {
			continue
		}
		xs = xs[:0]
		for _, r := range pend {
			xs = append(xs, r.x)
		}
		meta := s.src.ReadParams(&lease, scratch, forward)
		B := len(pend)
		// Count, then reply: a client that reads Stats() right after its
		// reply must find its own request in them.
		s.stats.observe(pend, time.Now(), meta)
		for i, r := range pend {
			probs := make([]float64, s.net.OutDim())
			nn.SoftmaxInto(logits.Row(i), probs)
			r.resp <- result{pred: Prediction{
				Class:            tensor.ArgMax(probs),
				Probs:            probs,
				Consistent:       meta.Consistent,
				RetiredEpoch:     meta.Retired,
				Final:            meta.Final,
				Copied:           meta.Copied,
				Snapshot:         meta.Snapshot,
				StalenessUpdates: meta.StalenessUpdates,
				StalenessAge:     meta.StalenessAge,
				Chains:           meta.Chains,
				Batch:            B,
			}}
		}
	}
}

// drain answers the collected and still-queued requests with ErrClosed.
// Close flips closed before closing quit, so no new request can be enqueued
// while drain empties the channel.
func (s *Server) drain(pend []request) {
	for _, r := range pend {
		r.resp <- result{err: ErrClosed}
	}
	for {
		select {
		case r := <-s.reqs:
			r.resp <- result{err: ErrClosed}
		default:
			return
		}
	}
}

// latencyBound caps the request-latency histogram at 10µs × 20000 = 200ms;
// slower requests are attributed to the bound (metrics.Hist semantics).
const (
	latencyUnit  = 10 * time.Microsecond
	latencyBound = 20000
)

type serverStats struct {
	mu          sync.Mutex
	requests    int64
	batches     int64
	batchSum    int64
	consistent  int64
	mixed       int64
	retired     int64
	final       int64
	copied      int64
	snapshot    int64
	maxStaleUpd int64
	maxStaleAge time.Duration
	lat         *metrics.Hist
	maxLat      time.Duration
}

func (st *serverStats) observe(pend []request, now time.Time, meta paramvec.ReadMeta) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.requests += int64(len(pend))
	st.batches++
	st.batchSum += int64(len(pend))
	switch {
	case meta.Final:
		st.final += int64(len(pend))
	case meta.Consistent:
		st.consistent += int64(len(pend))
	default:
		st.mixed += int64(len(pend))
	}
	if meta.Retired {
		st.retired += int64(len(pend))
	}
	if meta.Copied {
		st.copied += int64(len(pend))
	}
	if meta.Snapshot {
		st.snapshot += int64(len(pend))
		if meta.StalenessUpdates > st.maxStaleUpd {
			st.maxStaleUpd = meta.StalenessUpdates
		}
		if meta.StalenessAge > st.maxStaleAge {
			st.maxStaleAge = meta.StalenessAge
		}
	}
	for _, r := range pend {
		d := now.Sub(r.enq)
		st.lat.Observe(int64(d / latencyUnit))
		if d > st.maxLat {
			st.maxLat = d
		}
	}
}

// Stats is a snapshot of the server's counters and latency distribution.
type Stats struct {
	// Requests answered and batches served; MeanBatch = Requests/Batches,
	// the coalescing factor.
	Requests  int64
	Batches   int64
	MeanBatch float64
	// Request latency quantiles: enqueue to response write (queueing +
	// coalescing delay + leased read + forward pass).
	P50, P99, MaxLatency time.Duration
	// Consistency labels, in requests: provably consistent live reads,
	// possibly mixed-version live reads, reads whose lease outlived its
	// epoch, reads of the immutable final parameters, snapshot-copy
	// reads.
	Consistent, Mixed, RetiredEpoch, Final, Copied int64
	// Snapshot counts requests served from a ReadFront snapshot;
	// MaxStalenessUpdates/MaxStalenessAge are the worst measured snapshot
	// staleness over those requests.
	Snapshot            int64
	MaxStalenessUpdates int64
	MaxStalenessAge     time.Duration
	// Shed counts requests rejected at enqueue with ErrOverloaded (queue
	// full); Expired counts requests dropped in queue past
	// Config.Deadline. Neither appears in Requests — only served requests
	// do.
	Shed    int64
	Expired int64
}

// Stats returns a snapshot of the counters since the server started.
func (s *Server) Stats() Stats {
	st := &s.stats
	st.mu.Lock()
	defer st.mu.Unlock()
	out := Stats{
		Requests:     st.requests,
		Batches:      st.batches,
		P50:          time.Duration(st.lat.Quantile(0.50)) * latencyUnit,
		P99:          time.Duration(st.lat.Quantile(0.99)) * latencyUnit,
		MaxLatency:   st.maxLat,
		Consistent:   st.consistent,
		Mixed:        st.mixed,
		RetiredEpoch: st.retired,
		Final:        st.final,
		Copied:       st.copied,

		Snapshot:            st.snapshot,
		MaxStalenessUpdates: st.maxStaleUpd,
		MaxStalenessAge:     st.maxStaleAge,

		Shed:    s.degrade.shed.Load(),
		Expired: s.degrade.expired.Load(),
	}
	if st.batches > 0 {
		out.MeanBatch = float64(st.batchSum) / float64(st.batches)
	}
	return out
}
