// Graceful degradation under overload: the server sheds load instead of
// queueing without bound (Predict fails fast with ErrOverloaded when the
// dispatch queue is full → HTTP 429), drops requests whose per-request
// deadline expired while queued (ErrDeadline → HTTP 504, cheaper than
// serving a prediction the client already gave up on), and reports both
// through Health — the /healthz signal an operator or load balancer drains
// traffic on, which flips back to ok once the pressure clears.
package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

var (
	// ErrOverloaded is returned by Predict when the dispatch queue is full:
	// the request was shed without queueing (HTTP 429).
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrDeadline is returned when a request's Config.Deadline expired
	// before its batch was dispatched (HTTP 504).
	ErrDeadline = errors.New("serve: request deadline expired in queue")
)

// degradeWindow is how long after the last shed or expiry Health keeps
// reporting degraded: long enough for a poller to observe the episode,
// short enough to flip back promptly once the pressure clears.
const degradeWindow = time.Second

// degradeState tracks the overload signals feeding Health. Counters are
// atomics (touched on the Predict fast path); the slow-read watermark is
// probe-local state under its own lock.
type degradeState struct {
	shed     atomic.Int64 // requests rejected at enqueue (queue full)
	expired  atomic.Int64 // requests dropped by the dispatcher (deadline)
	lastShed atomic.Int64 // unix nanos of the most recent shed or expiry

	mu            sync.Mutex
	lastSlowReads int64 // ReadFront SlowReads watermark at the previous probe
	slowSince     time.Time
}

func (d *degradeState) noteShed() {
	d.shed.Add(1)
	d.lastShed.Store(time.Now().UnixNano())
}

func (d *degradeState) noteExpired() {
	d.expired.Add(1)
	d.lastShed.Store(time.Now().UnixNano())
}

// Health is the server's degradation report.
type Health struct {
	// Degraded: the server is shedding, its queue is near saturation, or
	// the read front's staleness leash is persistently blown. Flips back
	// once the signals clear for degradeWindow.
	Degraded bool `json:"degraded"`
	// Reasons lists the active degradation signals (empty when healthy).
	Reasons []string `json:"reasons,omitempty"`
	// QueueLen/QueueCap is the dispatch-queue occupancy at probe time.
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	// Shed and Expired are cumulative: requests rejected at enqueue and
	// requests dropped in queue past their deadline.
	Shed    int64 `json:"shed"`
	Expired int64 `json:"expired"`
	// SlowReads is the read front's cumulative over-leash read count
	// (readfront store only).
	SlowReads int64 `json:"slow_reads,omitempty"`
}

// Health probes the server's degradation state. Safe for concurrent use;
// each call is one poll of the signals (queue occupancy, recent sheds, and —
// for the readfront store — whether over-leash reads accumulated since the
// previous probe).
func (s *Server) Health() Health {
	d := &s.degrade
	h := Health{
		QueueLen: len(s.reqs),
		QueueCap: cap(s.reqs),
		Shed:     d.shed.Load(),
		Expired:  d.expired.Load(),
	}
	if last := d.lastShed.Load(); last > 0 && time.Since(time.Unix(0, last)) < degradeWindow {
		h.Reasons = append(h.Reasons, "shedding")
	}
	if 10*h.QueueLen >= 9*h.QueueCap {
		h.Reasons = append(h.Reasons, "queue saturated")
	}
	if s.front != nil {
		h.SlowReads = s.front.Stats().SlowReads
		d.mu.Lock()
		if h.SlowReads > d.lastSlowReads {
			// Over-leash reads accumulated since the last probe: the leash
			// is being blown right now, not historically.
			d.slowSince = time.Now()
		}
		d.lastSlowReads = h.SlowReads
		blown := !d.slowSince.IsZero() && time.Since(d.slowSince) < degradeWindow
		d.mu.Unlock()
		if blown {
			h.Reasons = append(h.Reasons, "read leash blown")
		}
	}
	h.Degraded = len(h.Reasons) > 0
	return h
}

// expireStale partitions a collected batch by Config.Deadline: requests
// whose budget expired while queued are answered ErrDeadline immediately and
// excluded from the forward pass. Returns the still-live batch (filtered in
// place). Each drop is counted before it is answered, so a client that has
// seen ErrDeadline also sees it in Stats.Expired.
func (s *Server) expireStale(pend []request, now time.Time) []request {
	if s.cfg.Deadline <= 0 {
		return pend
	}
	live := pend[:0]
	for _, r := range pend {
		if now.Sub(r.enq) > s.cfg.Deadline {
			s.degrade.noteExpired()
			r.resp <- result{err: ErrDeadline}
			continue
		}
		live = append(live, r)
	}
	return live
}
