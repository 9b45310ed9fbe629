package market

// Metric names emitted by the marketplace. Spend is the first-class
// counter here: crowd/cents (booked by the session from each batch's
// bill) and market/spend_cents (booked at HIT-open time by the
// marketplace) agree after every session batch, cancelled ones
// included, and the per-backend crowd/backend/<id>/* families break
// the same spend out by channel.
const (
	// MetricSpendCents accumulates every cent the marketplace charged,
	// across all backends — the first-class spend counter.
	MetricSpendCents = "market/spend_cents"
	// MetricRouted counts questions that went through the router
	// (everything except short-circuited answers).
	MetricRouted = "market/routed"
	// MetricShortCircuited counts questions answered for free by
	// transitive closure over earlier positive answers.
	MetricShortCircuited = "market/short_circuited"
	// MetricBudgetExhausted counts questions that wanted a paid backend
	// but were demoted to the machine prior because the remaining
	// budget could not cover a new HIT.
	MetricBudgetExhausted = "market/budget_exhausted"
	// MetricFallbacks counts questions answered from the prior because
	// no backend at all was affordable (no machine backend in the
	// fleet and the budget spent).
	MetricFallbacks = "market/fallbacks"
	// MetricBudgetRemainingCents gauges the unspent budget (only
	// published when a finite budget is configured).
	MetricBudgetRemainingCents = "market/budget_remaining_cents"
	// MetricSimLatencySeconds gauges the accumulated simulated batch
	// makespan: per batch, the slowest HIT latency drawn across the
	// fleet (backends post HITs in parallel within an iteration).
	MetricSimLatencySeconds = "market/sim_latency_seconds"
)

// BackendMetric names one backend's per-channel metric: the
// crowd/backend/<id>/<name> families (questions, hits, cents,
// hit_latency_seconds, error_rate).
func BackendMetric(id, name string) string {
	return "crowd/backend/" + id + "/" + name
}
