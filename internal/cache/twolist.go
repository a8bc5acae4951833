package cache

// lruList names one of a twoList's two lists.
type lruList int8

const (
	inactive lruList = iota
	active
)

// twoList is the active/inactive approximate LRU of §5.3 (the Linux page
// lists) over the slot indices of a fully-associative section. A new slot
// enters the inactive front; a touch promotes it to the active front; the
// active list is bounded to half the capacity, because streamed-once entries
// would otherwise clog it and evictions cannibalize prefetched entries before
// their first touch; its overflow, and Refill, demote the active tail to the
// inactive back.
//
// The lists are intrusive and circular: links[inactive] and links[active] are
// the two list heads and slot i lives at links[i+2], so no operation
// allocates once the slice covers the slots in use. Victim choice stays with
// the section, which walks Back/Prev under its own rules.
type twoList struct {
	links     []link
	n         [2]int
	activeMax int
}

type link struct {
	prev, next int32
	on         lruList
}

// newTwoList returns empty lists for a pool of capacity slots.
func newTwoList(capacity int) *twoList {
	return &twoList{links: []link{{0, 0, inactive}, {1, 1, active}}, activeMax: capacity / 2}
}

// Front and Back report the most and least recent slot of list l; Next and
// Prev step from slot i towards the back and the front. All four return a
// negative value when there is no such slot.
func (t *twoList) Front(l lruList) int32 { return t.links[l].next - 2 }
func (t *twoList) Back(l lruList) int32  { return t.links[l].prev - 2 }
func (t *twoList) Next(i int32) int32    { return t.links[i+2].next - 2 }
func (t *twoList) Prev(i int32) int32    { return t.links[i+2].prev - 2 }

// Insert puts a slot that is on neither list at the inactive front.
func (t *twoList) Insert(i int32) {
	for int(i)+2 >= len(t.links) {
		t.links = append(t.links, link{})
	}
	t.push(inactive, i, false)
}

// Remove takes slot i off the list that holds it.
func (t *twoList) Remove(i int32) {
	k := t.links[i+2]
	t.links[k.prev].next, t.links[k.next].prev = k.next, k.prev
	t.n[k.on]--
}

// Touch records a use of slot i: it moves to the active front, and the active
// tail is demoted while that list is over its bound (with a capacity of one
// the tail is the promoted slot itself).
func (t *twoList) Touch(i int32) {
	t.Remove(i)
	t.push(active, i, false)
	for t.n[active] > t.activeMax {
		t.demote()
	}
}

// Refill demotes the active tail when the inactive list has run dry, so a
// victim scan always starts on the inactive list.
func (t *twoList) Refill() {
	if t.n[inactive] == 0 && t.n[active] > 0 {
		t.demote()
	}
}

// demote moves the active tail to the inactive back.
func (t *twoList) demote() {
	i := t.Back(active)
	t.Remove(i)
	t.push(inactive, i, true)
}

// push links slot i into list l, at its front or its back.
func (t *twoList) push(l lruList, i int32, back bool) {
	after := int32(l)
	if back {
		after = t.links[l].prev
	}
	before := t.links[after].next
	t.links[i+2] = link{prev: after, next: before, on: l}
	t.links[after].next, t.links[before].prev = i+2, i+2
	t.n[l]++
}
