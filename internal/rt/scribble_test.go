package rt

import "mira/internal/transport/transporttest"

// The whole suite runs with every runtime's link — the single transport's or
// the pool's, as the sections and the swap pool drive it — scribbling over
// its previous gather reply at the start of every call: fetch and land must
// have copied every piece into its line by then, in every test there is.
func init() { wrapLink = transporttest.Scribble }
