package planner

// planOn runs Plan's flow on a ledger the test keeps: its record of
// every candidate executed and its reuse count stay readable afterwards. forget
// is the test-only switch that makes every ledger lookup miss — each request
// then opens a session, as the planner did before it had a ledger — which
// nothing outside the tests can turn on.
func planOn(w Workload, opts Options, forget bool) (*Result, *ledger, error) {
	opts = withDefaults(opts)
	l := newLedger(w, opts)
	l.forget = forget
	res, err := plan(l, opts)
	return res, l, err
}
