package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// lineView is what the differential compares of a resident line.
type lineView struct {
	Tag              uint64
	Dirty, Evictable bool
	LastUse          uint64
	First            byte
}

func viewOf(s interface{ ForEachResident(func(*Line)) }) (out []lineView) {
	s.ForEachResident(func(l *Line) {
		out = append(out, lineView{l.Tag, l.Dirty, l.Evictable, l.lastUse, l.Data[0]})
	})
	return out
}

// TestFullAssocAgainstReference drives the slot-arena fullAssoc and the map +
// container/list one it replaced (ref_fullassoc_test.go) with the same seeded
// script and demands the same victims (tag, dirtiness, bytes), stats and
// resident lines in the same list order after every step.
func TestFullAssocAgainstReference(t *testing.T) {
	const lineBytes = 16
	for _, lines := range []int{1, 2, 3, 8, 24} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("lines%d/seed%d", lines, seed), func(t *testing.T) {
				cfg := Config{Structure: FullAssoc, LineBytes: lineBytes, SizeBytes: int64(lines * lineBytes)}
				f, ref := newFullAssoc(cfg), newRefFullAssoc(cfg)
				rng := rand.New(rand.NewSource(seed))
				sameVictim := func(step int, v, rv Victim) {
					t.Helper()
					if v.Tag != rv.Tag || v.Dirty != rv.Dirty || v.Conflict != rv.Conflict ||
						(v.Data == nil) != (rv.Data == nil) || (v.Dirty && !bytes.Equal(v.Data, rv.Data)) {
						t.Fatalf("step %d: victim %+v, reference %+v", step, v, rv)
					}
					if v.Dirty {
						f.Recycle(v.Data)
					}
				}
				for step := 0; step < 2000; step++ {
					addr := uint64(rng.Intn(3*lines+2)*lineBytes + rng.Intn(lineBytes))
					switch k := rng.Intn(16); {
					case k < 10:
						l, ok := f.Lookup(addr)
						rl, rok := ref.Lookup(addr)
						if ok != rok {
							t.Fatalf("step %d: Lookup hit %v, reference %v", step, ok, rok)
						}
						if !ok {
							var v, rv Victim
							l, v = f.Reserve(addr)
							rl, rv = ref.Reserve(addr)
							sameVictim(step, v, rv)
						}
						if rng.Intn(2) == 0 {
							l.Data[0], l.Dirty = byte(step), true
							rl.Data[0], rl.Dirty = byte(step), true
						}
					case k < 13:
						if a, b := f.MarkEvictable(addr), ref.MarkEvictable(addr); a != b {
							t.Fatalf("step %d: MarkEvictable %v, reference %v", step, a, b)
						}
					default:
						v, ok := f.Drop(addr)
						rv, rok := ref.Drop(addr)
						if ok != rok {
							t.Fatalf("step %d: Drop %v, reference %v", step, ok, rok)
						}
						sameVictim(step, v, rv)
					}
					if f.Stats() != ref.Stats() {
						t.Fatalf("step %d: stats %+v, reference %+v", step, f.Stats(), ref.Stats())
					}
					if a, b := viewOf(f), viewOf(ref); !reflect.DeepEqual(a, b) || len(f.slotOf) != ref.Resident() {
						t.Fatalf("step %d: resident lines\n%+v\nreference\n%+v", step, a, b)
					}
					if _, err := Inspect(f); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			})
		}
	}
}

// Reserve's contract is zeroed Data: a selective fetch fills only field
// ranges and a write-only allocation fills nothing, so whatever the buffer's
// previous life left in it must be gone. Every line here is first filled
// with 0xFF and leaves through each of the ways a buffer comes back — clean
// victim, dirty victim recycled, Drop, Spare recycled.
func TestRecycledLineIsZeroed(t *testing.T) {
	const lineBytes, lines = 32, 4
	ff := bytes.Repeat([]byte{0xFF}, lineBytes)
	zero := make([]byte, lineBytes)
	for _, cfg := range allStructures(lineBytes, lines*lineBytes) {
		s := mkSection(t, cfg)
		made := map[*byte]bool{}
		next := uint64(0)
		reserve := func(dirty bool) Victim {
			l, v := s.Reserve(next)
			next += lineBytes
			if !bytes.Equal(l.Data, zero) {
				t.Fatalf("%v: Reserve returned a line that is not zeroed", cfg.Structure)
			}
			made[&l.Data[0]] = true
			copy(l.Data, ff)
			l.Dirty = dirty
			return v
		}
		for i := 0; i < 64; i++ {
			switch v := reserve(i%3 == 0); {
			case v.Dirty:
				if !bytes.Equal(v.Data, ff) {
					t.Fatalf("%v: dirty victim lost its bytes", cfg.Structure)
				}
				s.Recycle(v.Data)
			case v.Data != nil && !bytes.Equal(v.Data, ff):
				t.Fatalf("%v: clean victim not readable until the next Reserve", cfg.Structure)
			}
			if i%5 == 0 {
				if v, ok := s.Drop(next - lineBytes); ok && v.Dirty {
					s.Recycle(v.Data)
				}
			}
			if i%7 == 0 {
				b := s.Spare()
				if !bytes.Equal(b, zero) {
					t.Fatalf("%v: Spare returned a buffer that is not zeroed", cfg.Structure)
				}
				made[&b[0]] = true
				copy(b, ff)
				s.Recycle(b)
			}
		}
		// Every buffer came back, so the stock stayed at the lines plus the
		// one Reserve takes before it retires its victim.
		if len(made) > lines+1 {
			t.Fatalf("%v: %d buffers made for %d lines", cfg.Structure, len(made), lines)
		}
		s.Recycle(make([]byte, lineBytes+1)) // a foreign length is ignored
		if l, _ := s.Reserve(next); len(l.Data) != lineBytes {
			t.Fatalf("%v: Reserve handed out a recycled buffer of %d bytes", cfg.Structure, len(l.Data))
		}
	}
}
