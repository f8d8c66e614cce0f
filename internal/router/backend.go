package router

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dssddi/internal/obs"
)

// healthState is one backend's position in the ejection/recovery
// state machine.
type healthState int32

const (
	// stateHealthy: taking traffic; consecutive failures accumulate
	// toward ejection.
	stateHealthy healthState = iota
	// stateEjected: out of rotation; after Cooldown the prober moves it
	// to half-open and sends a single trial probe.
	stateEjected
	// stateHalfOpen: one probe in flight decides recovery (-> healthy)
	// or re-ejection (-> ejected with a fresh cooldown).
	stateHalfOpen
)

func (s healthState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateEjected:
		return "ejected"
	case stateHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// healthMachine is the per-backend ejection/recovery state machine,
// kept free of I/O so it is directly unit-testable. Failures are
// transport-level (connect refused/reset, timeout) or failed health
// probes — an application-level 4xx/5xx from a live backend is not a
// health signal.
type healthMachine struct {
	failAfter int
	cooldown  time.Duration

	mu        sync.Mutex
	state     healthState
	fails     int // consecutive failures while healthy
	ejectedAt time.Time
	ejections int64
}

func newHealthMachine(failAfter int, cooldown time.Duration) *healthMachine {
	if failAfter <= 0 {
		failAfter = 3
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &healthMachine{failAfter: failAfter, cooldown: cooldown}
}

// OnSuccess records a successful probe or proxied request. In
// half-open it completes recovery; it returns true when the backend
// transitioned back to healthy.
func (m *healthMachine) OnSuccess() (recovered bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	recovered = m.state == stateHalfOpen
	m.state = stateHealthy
	m.fails = 0
	return recovered
}

// OnFailure records a transport failure at time now. It returns true
// when this failure ejected the backend (from healthy after failAfter
// consecutive failures, or instantly from half-open).
func (m *healthMachine) OnFailure(now time.Time) (ejected bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.state {
	case stateHealthy:
		m.fails++
		if m.fails >= m.failAfter {
			m.state = stateEjected
			m.ejectedAt = now
			m.ejections++
			return true
		}
	case stateHalfOpen:
		// The trial failed: re-eject with a fresh cooldown.
		m.state = stateEjected
		m.ejectedAt = now
		m.ejections++
		return true
	case stateEjected:
		// Late failures from requests already in flight; the clock is
		// not reset, or a flapping backend could starve its own trials.
	}
	return false
}

// ProbeDue reports whether the prober should send a half-open trial,
// transitioning ejected -> half-open when the cooldown has elapsed.
// At most one caller wins the transition, so the trial is single.
func (m *healthMachine) ProbeDue(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == stateEjected && now.Sub(m.ejectedAt) >= m.cooldown {
		m.state = stateHalfOpen
		return true
	}
	return false
}

// RetryAfter estimates how long until this backend could plausibly
// take traffic again: the remainder of the ejection cooldown when
// ejected, one full cooldown otherwise (a half-open trial or
// accumulating failures — recovery time is unknowable, so quote the
// cycle length). Used to stamp Retry-After on pinned-key 503s.
func (m *healthMachine) RetryAfter(now time.Time) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == stateEjected {
		if rem := m.cooldown - now.Sub(m.ejectedAt); rem > 0 {
			// Near cooldown expiry the remainder can be sub-second;
			// quoting it raw would render as Retry-After: 0 once
			// truncated to whole seconds, telling clients to hammer a
			// backend that is still out of rotation. Never quote less
			// than one second.
			if rem < time.Second {
				rem = time.Second
			}
			return rem
		}
	}
	return m.cooldown
}

// Healthy reports whether the backend is in rotation.
func (m *healthMachine) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state == stateHealthy
}

func (m *healthMachine) snapshot() (state healthState, fails int, ejections int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state, m.fails, m.ejections
}

// backend is one pool member: its HTTP client (own transport, so
// connection reuse is per-backend and one slow backend cannot starve
// another's idle pool), health machine and counters.
type backend struct {
	name   string // host:port — the ring identity
	base   string // http://host:port
	client *http.Client
	health *healthMachine

	// epoch is the serving epoch the last successful health probe
	// reported — the router's view of rollout convergence.
	epoch atomic.Int64

	requests   atomic.Int64 // proxied attempts sent to this backend
	errors     atomic.Int64 // transport failures of proxied attempts
	retries    atomic.Int64 // attempts that were retries of a failed one
	routedKeys atomic.Int64 // requests whose key this backend owned
	// Half-open trials whose reconcile failed, and the latest reason.
	reconcileFailures  atomic.Int64
	lastReconcileError atomic.Value // a string
	// lat is the per-backend attempt latency distribution. Fixed
	// buckets shared with the serve tier, so the router's fleet view
	// can sum the per-backend histograms bucket-wise into an exact
	// aggregate (no lock, no sort — two atomic adds per attempt).
	lat obs.Histogram
}

// maxIdleConns bounds the kept-alive connections per backend.
const maxIdleConns = 256

func newBackend(name string, cfg Config) *backend {
	transport := &http.Transport{
		MaxIdleConns:        maxIdleConns,
		MaxIdleConnsPerHost: maxIdleConns,
		IdleConnTimeout:     90 * time.Second,
	}
	return &backend{
		name:   name,
		base:   "http://" + name,
		client: &http.Client{Transport: transport, Timeout: cfg.Timeout},
		health: newHealthMachine(cfg.FailAfter, cfg.Cooldown),
	}
}
