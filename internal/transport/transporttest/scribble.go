package transporttest

import (
	"mira/internal/sim"
	"mira/internal/transport"
)

// ScribbleLink holds the consumers of a Link to the gather-reply contract: a
// reply is valid until the next call on the link. It forwards every call
// unchanged, but first overwrites the reply it handed out last with 0xDB, so
// a consumer that kept a reply across a call — instead of copying the pieces
// out first — reads garbage and fails its own checks. To a consumer that
// honours the contract the wrapper is invisible: the owner of the reply
// rewrites all of it on its next gather anyway.
type ScribbleLink struct {
	inner transport.Link
	last  []byte
}

// Scribble wraps l.
func Scribble(l transport.Link) transport.Link { return &ScribbleLink{inner: l} }

func (s *ScribbleLink) scribble() {
	for i := range s.last {
		s.last[i] = 0xDB
	}
	s.last = nil
}

func (s *ScribbleLink) ReadOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	s.scribble()
	return s.inner.ReadOneSided(now, addr, buf)
}

func (s *ScribbleLink) WriteOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	s.scribble()
	return s.inner.WriteOneSided(now, addr, buf)
}

func (s *ScribbleLink) GatherTwoSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error) {
	s.scribble()
	data, done, err := s.inner.GatherTwoSided(now, addrs, sizes)
	s.last = data
	return data, done, err
}

func (s *ScribbleLink) ScatterTwoSided(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Time, error) {
	s.scribble()
	return s.inner.ScatterTwoSided(now, addrs, pieces)
}

func (s *ScribbleLink) GatherOneSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error) {
	s.scribble()
	data, done, err := s.inner.GatherOneSided(now, addrs, sizes)
	s.last = data
	return data, done, err
}

func (s *ScribbleLink) ScatterWrite(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Time, error) {
	s.scribble()
	return s.inner.ScatterWrite(now, addrs, pieces)
}

func (s *ScribbleLink) Call(now sim.Time, name string, args []byte) ([]byte, sim.Time, error) {
	s.scribble()
	return s.inner.Call(now, name, args)
}

func (s *ScribbleLink) Flush(now sim.Time) (sim.Time, error) {
	s.scribble()
	return s.inner.Flush(now)
}

func (s *ScribbleLink) BreakerOpen(now sim.Time) bool {
	s.scribble()
	return s.inner.BreakerOpen(now)
}

func (s *ScribbleLink) Stats() transport.Stats {
	s.scribble()
	return s.inner.Stats()
}

func (s *ScribbleLink) BytesMoved() int64 {
	s.scribble()
	return s.inner.BytesMoved()
}

func (s *ScribbleLink) Messages() int64 {
	s.scribble()
	return s.inner.Messages()
}

var _ transport.Link = (*ScribbleLink)(nil)
