package prefetch

// ring is a FIFO of context keys over a circular buffer: History's
// insertion order. Once a table is full every push follows a pop, and a
// ring that slides like that never reallocates; while the table still
// grows, the ring doubles with it.
type ring struct {
	buf  []uint64
	head int // index of the oldest element
	n    int
}

func (r *ring) len() int { return r.n }

func (r *ring) push(v uint64) {
	if r.n == len(r.buf) {
		grown := make([]uint64, max(2*len(r.buf), 16))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// pop removes and returns the oldest element.
func (r *ring) pop() uint64 {
	v := r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}
