package congest

// queue is one directed edge's FIFO: the ends of an intrusive chain
// through its edge half's slotPool and the number of messages on it.
// head and tail mean nothing while size is 0, so the zero value is an
// empty queue and emptying one is a single store.
type queue struct {
	head, tail, size int32
}

// slotPool holds every queued message of one edge half in one slab.
// Slot i carries msgs[i] and next[i], the slot queued behind it (or the
// next free slot once popped). A freed slot is reused last-in first-out
// and a fresh one is appended only when none is free, so the slab is
// never longer than the largest number of messages the half held at
// once, and the slots in use are the ones touched most recently — the
// footprint follows the traffic, not the sum of every edge's deepest
// queue. The link is a parallel array, not a Message field: the chain
// walk stays in a dense int32 slab (measured faster than a link in the
// message's padding).
type slotPool struct {
	msgs []Message
	next []int32
	free int32 // top of the free stack, noSlot when empty
}

const noSlot = -1

// push extends q by one slot and returns it for the caller to fill in
// place.
func (p *slotPool) push(q *queue) *Message {
	s := p.free
	if s != noSlot {
		p.free = p.next[s]
	} else {
		s = int32(len(p.msgs))
		p.msgs = append(p.msgs, Message{})
		p.next = append(p.next, noSlot)
	}
	if q.size == 0 {
		q.head = s
	} else {
		p.next[q.tail] = s
	}
	q.tail = s
	q.size++
	return &p.msgs[s]
}

// pop unlinks q's front message (size > 0) and returns it. The slot is
// free at once; its content stays readable until the next push.
func (p *slotPool) pop(q *queue) *Message {
	s := q.head
	q.head = p.next[s]
	q.size--
	p.next[s] = p.free
	p.free = s
	return &p.msgs[s]
}

// reset forgets every slot, keeping the slab's capacity. The caller
// zeroes the queue headers that still pointed into it.
func (p *slotPool) reset() {
	p.msgs, p.next, p.free = p.msgs[:0], p.next[:0], noSlot
}
