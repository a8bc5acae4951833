package cluster

import "mira/internal/transport/transporttest"

// The whole suite — failover, the per-segment fallback and the conformance
// runs included — drives every node link through a wrapper that scribbles
// over its previous gather reply at the start of every call: gatherVec must
// have copied a node's reply into the pool's own before it calls that link
// again.
func init() { wrapNodeLink = transporttest.Scribble }
