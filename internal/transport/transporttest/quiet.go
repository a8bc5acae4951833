package transporttest

import (
	"mira/internal/sim"
	"mira/internal/transport"
)

// QuietLink is a far side that allocates nothing itself, for
// testing.AllocsPerRun tests of the layers above the transport: what they
// count is then the caller's own. Reads fill the buffer from the address,
// writes are dropped, and a gather answers from Reply, which must be as long
// as the largest gather. Every other Link method panics (nil embedded Link).
type QuietLink struct {
	transport.Link
	Reply []byte
}

func (*QuietLink) ReadOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	for i := range buf {
		buf[i] = byte(addr >> 7)
	}
	return now.Add(3 * sim.Microsecond), nil
}

func (*QuietLink) WriteOneSided(now sim.Time, _ uint64, _ []byte) (sim.Time, error) {
	return now.Add(3 * sim.Microsecond), nil
}

func (l *QuietLink) GatherOneSided(now sim.Time, _ []uint64, sizes []int) ([]byte, sim.Time, error) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	return l.Reply[:total], now.Add(5 * sim.Microsecond), nil
}

func (*QuietLink) ScatterWrite(now sim.Time, _ []uint64, _ [][]byte) (sim.Time, error) {
	return now.Add(5 * sim.Microsecond), nil
}

func (*QuietLink) BreakerOpen(sim.Time) bool { return false }
