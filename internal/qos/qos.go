// Package qos implements the prioritized-queue enforcement that DISCS
// enables at a victim's overwhelmed uplink.
//
// §I of the paper points out MEF's intrinsic limitation: "the victim
// AS cannot determine whether an inbound packet is spoofed or not no
// matter what source address it carries, so it cannot enforce
// prioritized queues in case the bandwidth is overwhelmed." DISCS's
// CDP verification *does* classify inbound packets — verified marks
// are provably from collaborators — so the victim border can map
// verified traffic to a high-priority queue and unverifiable traffic
// to a low-priority one, keeping collaborator goodput near 100% even
// under severe overload.
//
// The model is a packet-level strict-priority queue with finite
// buffers and drop-tail behavior, driven by (arrival-time, class)
// events; ClassOf maps a router verdict to its class.
package qos

import (
	"container/heap"
	"fmt"
	"time"
)

// Class is a queue priority class.
type Class int

const (
	// High is the verified/collaborator class.
	High Class = iota
	// Low is the unverifiable class.
	Low
	numClasses
)

func (c Class) String() string {
	switch c {
	case High:
		return "high"
	case Low:
		return "low"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Packet is one arrival at the queue.
type Packet struct {
	Arrival time.Duration
	Class   Class
	// ID lets callers correlate outcomes; opaque to the queue.
	ID int
}

// Outcome is the fate of one packet.
type Outcome struct {
	Packet   Packet
	Dropped  bool
	Departed time.Duration // service completion time (if not dropped)
}

// Queue is a strict-priority, drop-tail queue with one buffer per
// class, served at a fixed packet rate.
type Queue struct {
	// ServicePPS is the drain rate in packets/second.
	ServicePPS float64
	// BufferPerClass is the per-class buffer capacity in packets.
	BufferPerClass int
}

// arrivalHeap orders packets by arrival time (stable by ID).
type arrivalHeap []Packet

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if h[i].Arrival != h[j].Arrival {
		return h[i].Arrival < h[j].Arrival
	}
	return h[i].ID < h[j].ID
}
func (h arrivalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x any)   { *h = append(*h, x.(Packet)) }
func (h *arrivalHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

// Run simulates the queue over the packet trace and returns one
// outcome per packet (same order as input). The simulation is a
// two-event loop (arrival, service completion) over a single
// work-conserving server: at each completion the head of the
// highest-priority non-empty buffer enters service.
func (q Queue) Run(packets []Packet) ([]Outcome, error) {
	if q.ServicePPS <= 0 {
		return nil, fmt.Errorf("qos: non-positive service rate %v", q.ServicePPS)
	}
	if q.BufferPerClass <= 0 {
		return nil, fmt.Errorf("qos: non-positive buffer %d", q.BufferPerClass)
	}
	serviceTime := time.Duration(float64(time.Second) / q.ServicePPS)

	arrivals := make(arrivalHeap, 0, len(packets))
	for _, p := range packets {
		if p.Class < 0 || p.Class >= numClasses {
			return nil, fmt.Errorf("qos: bad class %d", p.Class)
		}
		arrivals = append(arrivals, p)
	}
	heap.Init(&arrivals)

	outcomes := make(map[int]Outcome, len(packets))
	var buffers [numClasses][]Packet
	busy := false
	var busyUntil time.Duration

	// startService admits a packet to the server at time `at`.
	startService := func(p Packet, at time.Duration) {
		busy = true
		busyUntil = at + serviceTime
		outcomes[p.ID] = Outcome{Packet: p, Departed: busyUntil}
	}
	// dequeue pops the highest-priority buffered packet.
	dequeue := func() (Packet, bool) {
		for c := Class(0); c < numClasses; c++ {
			if len(buffers[c]) > 0 {
				p := buffers[c][0]
				buffers[c] = buffers[c][1:]
				return p, true
			}
		}
		return Packet{}, false
	}

	for {
		// Service completion is the next event when it precedes (or
		// ties with) the next arrival.
		if busy && (arrivals.Len() == 0 || busyUntil <= arrivals[0].Arrival) {
			busy = false
			if p, ok := dequeue(); ok {
				startService(p, busyUntil)
			}
			continue
		}
		if arrivals.Len() == 0 {
			break
		}
		p := heap.Pop(&arrivals).(Packet)
		switch {
		case !busy:
			startService(p, p.Arrival)
		case len(buffers[p.Class]) >= q.BufferPerClass:
			outcomes[p.ID] = Outcome{Packet: p, Dropped: true}
		default:
			buffers[p.Class] = append(buffers[p.Class], p)
		}
	}

	out := make([]Outcome, len(packets))
	for i, p := range packets {
		o, ok := outcomes[p.ID]
		if !ok {
			return nil, fmt.Errorf("qos: packet %d lost by simulator (duplicate ID?)", p.ID)
		}
		out[i] = o
	}
	return out, nil
}

// Stats summarizes outcomes per class.
type Stats struct {
	Offered   [numClasses]int
	Delivered [numClasses]int
	Dropped   [numClasses]int
}

// Summarize tallies outcomes.
func Summarize(outcomes []Outcome) Stats {
	var s Stats
	for _, o := range outcomes {
		c := o.Packet.Class
		s.Offered[c]++
		if o.Dropped {
			s.Dropped[c]++
		} else {
			s.Delivered[c]++
		}
	}
	return s
}

// GoodputRate returns delivered/offered for a class (1 when nothing
// was offered).
func (s Stats) GoodputRate(c Class) float64 {
	if s.Offered[c] == 0 {
		return 1
	}
	return float64(s.Delivered[c]) / float64(s.Offered[c])
}
