// Package queueing provides the design-time performance analysis the paper
// leans on (§5: "we calculated that an initial starting point of 3
// replicated servers in one server group would be sufficient to serve our
// six clients"; §7: "a queuing-theoretic analysis of performance can
// indicate possible points of adaptation"). It implements the standard
// M/M/m model: Poisson arrivals, exponential service, m replicated servers
// sharing one FIFO queue — exactly the server-group architecture of
// Figure 2.
package queueing

import (
	"fmt"
	"math"
)

// MMm describes one server group under analysis.
type MMm struct {
	// Lambda is the aggregate arrival rate (requests/second).
	Lambda float64
	// Mu is the per-server service rate (requests/second).
	Mu float64
	// M is the number of replicated servers.
	M int
}

// Valid reports whether the system is stable (utilization < 1). A zero
// arrival rate is trivially stable; a group with no servers or no service
// capacity never is.
func (q MMm) Valid() bool {
	return q.Lambda >= 0 && q.Mu > 0 && q.M > 0 && q.Utilization() < 1
}

// Utilization returns ρ = λ/(mμ). Degenerate groups (m ≤ 0 or μ ≤ 0) are
// reported as saturated (+Inf) rather than NaN so callers can branch on
// ρ ≥ 1 without NaN-poisoning downstream arithmetic.
func (q MMm) Utilization() float64 {
	if q.M <= 0 || q.Mu <= 0 {
		return math.Inf(1)
	}
	return q.Lambda / (float64(q.M) * q.Mu)
}

// ErlangC returns the probability an arriving request waits (all servers
// busy). An empty system (λ=0) never waits; a saturated one always does.
func (q MMm) ErlangC() float64 {
	if q.Lambda <= 0 {
		return 0
	}
	if !q.Valid() {
		return 1
	}
	a := q.Lambda / q.Mu // offered load in Erlangs
	m := float64(q.M)
	rho := q.Utilization()

	// Σ_{k<m} a^k/k!  computed iteratively for stability.
	sum := 0.0
	term := 1.0
	for k := 0; k < q.M; k++ {
		if k > 0 {
			term *= a / float64(k)
		}
		sum += term
	}
	// a^m/m! · 1/(1-ρ)
	top := term * a / m / (1 - rho)
	return top / (sum + top)
}

// MeanQueueLength returns Lq, the mean number of waiting requests. It is 0
// for an empty system and +Inf (never NaN) when saturated.
func (q MMm) MeanQueueLength() float64 {
	if !q.Valid() {
		return math.Inf(1)
	}
	rho := q.Utilization()
	return q.ErlangC() * rho / (1 - rho)
}

// MeanWait returns Wq, the mean time spent waiting in queue (seconds). It
// is 0 for an empty system and +Inf (never NaN) when saturated.
func (q MMm) MeanWait() float64 {
	if !q.Valid() {
		return math.Inf(1)
	}
	return q.ErlangC() / (float64(q.M)*q.Mu - q.Lambda)
}

// MeanResponse returns W = Wq + 1/μ, the mean end-to-end service latency
// excluding network transfer time. Saturated or degenerate groups return
// +Inf, never NaN — callers compare W against a latency bound and a NaN
// would silently pass every comparison.
func (q MMm) MeanResponse() float64 {
	if q.Mu <= 0 {
		return math.Inf(1)
	}
	return q.MeanWait() + 1/q.Mu
}

// String summarizes the analysis.
func (q MMm) String() string {
	return fmt.Sprintf("M/M/%d λ=%.2f μ=%.2f ρ=%.2f W=%.3fs Lq=%.2f",
		q.M, q.Lambda, q.Mu, q.Utilization(), q.MeanResponse(), q.MeanQueueLength())
}

// ServersFor returns the minimum number of servers keeping mean response
// under maxLatency, and the analysis at that point. It returns ok=false if
// even maxServers servers cannot meet the bound.
func ServersFor(lambda, mu, maxLatency float64, maxServers int) (int, MMm, bool) {
	for m := 1; m <= maxServers; m++ {
		q := MMm{Lambda: lambda, Mu: mu, M: m}
		if q.Valid() && q.MeanResponse() <= maxLatency {
			return m, q, true
		}
	}
	return 0, MMm{}, false
}
