package aifm

import "mira/internal/transport/transporttest"

// The whole suite runs with the runtime's link scribbling over its previous
// gather reply at the start of every call: a miss must have copied the
// fetched object into its entry by then.
func init() { wrapLink = transporttest.Scribble }
