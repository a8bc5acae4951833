package cache

// List names one of a TwoList's two lists.
type List int8

const (
	Inactive List = iota
	Active
)

// TwoList is the active/inactive approximate LRU of §5.3 (the Linux page
// lists) over slot indices — the list mechanics the fully-associative section
// and the swap cache's frame pool share. A new slot enters the inactive
// front; a touch promotes it to the active front; the active list is bounded
// to half the capacity, because streamed-once entries would otherwise clog it
// and evictions cannibalize prefetched entries before their first touch; its
// overflow, and Refill, demote the active tail to the inactive back.
//
// The lists are intrusive and circular: links[Inactive] and links[Active] are
// the two list heads and slot i lives at links[i+2], so no operation
// allocates once the slice covers the slots in use. Victim choice stays with
// the caller, which walks Back/Prev under its own rules.
type TwoList struct {
	links     []link
	n         [2]int
	activeMax int
}

type link struct {
	prev, next int32
	on         List
}

// NewTwoList returns empty lists for a pool of capacity slots.
func NewTwoList(capacity int) *TwoList {
	return &TwoList{links: []link{{0, 0, Inactive}, {1, 1, Active}}, activeMax: capacity / 2}
}

// Len reports how many slots are on list l.
func (t *TwoList) Len(l List) int { return t.n[l] }

// Front and Back report the most and least recent slot of list l; Next and
// Prev step from slot i towards the back and the front. All four return a
// negative value when there is no such slot.
func (t *TwoList) Front(l List) int32 { return t.links[l].next - 2 }
func (t *TwoList) Back(l List) int32  { return t.links[l].prev - 2 }
func (t *TwoList) Next(i int32) int32 { return t.links[i+2].next - 2 }
func (t *TwoList) Prev(i int32) int32 { return t.links[i+2].prev - 2 }

// Insert puts a slot that is on neither list at the inactive front.
func (t *TwoList) Insert(i int32) {
	for int(i)+2 >= len(t.links) {
		t.links = append(t.links, link{})
	}
	t.push(Inactive, i, false)
}

// Remove takes slot i off the list that holds it.
func (t *TwoList) Remove(i int32) {
	k := t.links[i+2]
	t.links[k.prev].next, t.links[k.next].prev = k.next, k.prev
	t.n[k.on]--
}

// Touch records a use of slot i: it moves to the active front, and the active
// tail is demoted while that list is over its bound (with a capacity of one
// the tail is the promoted slot itself).
func (t *TwoList) Touch(i int32) {
	t.Remove(i)
	t.push(Active, i, false)
	for t.n[Active] > t.activeMax {
		t.demote()
	}
}

// Refill demotes the active tail when the inactive list has run dry, so a
// victim scan always starts on the inactive list.
func (t *TwoList) Refill() {
	if t.n[Inactive] == 0 && t.n[Active] > 0 {
		t.demote()
	}
}

// demote moves the active tail to the inactive back.
func (t *TwoList) demote() {
	i := t.Back(Active)
	t.Remove(i)
	t.push(Inactive, i, true)
}

// push links slot i into list l, at its front or its back.
func (t *TwoList) push(l List, i int32, back bool) {
	after := int32(l)
	if back {
		after = t.links[l].prev
	}
	before := t.links[after].next
	t.links[i+2] = link{prev: after, next: before, on: l}
	t.links[after].next, t.links[before].prev = i+2, i+2
	t.n[l]++
}
