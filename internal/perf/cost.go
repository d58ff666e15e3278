package perf

import "fmt"

// Cost accumulates the three components of the alpha-beta-gamma model
// for one processor — flops executed, messages sent and words moved —
// plus injected stall time (timeouts, straggler waits, retry backoff)
// charged by the fault-injection layer. The zero value is an empty
// cost, ready to use.
type Cost struct {
	// Flops is the number of floating point operations (F in Eq. 7).
	Flops int64
	// Messages is the number of messages sent (L in Eq. 7).
	Messages int64
	// Words is the number of 8-byte words moved (W in Eq. 7).
	Words int64
	// StallSec is wall-clock waiting that corresponds to no data
	// movement or compute: communication timeouts, straggler delays and
	// retry backoff injected by a dist.FaultPlan. It enters the modeled
	// time (Machine.Seconds) additively, outside the alpha-beta-gamma
	// terms. Zero on fault-free runs.
	StallSec float64
}

// AddFlops charges n floating point operations. Safe to call on a nil
// receiver, which makes cost accounting optional in compute kernels.
func (c *Cost) AddFlops(n int64) {
	if c == nil {
		return
	}
	c.Flops += n
}

// AddMessages charges n messages carrying words words each.
func (c *Cost) AddMessages(n, words int64) {
	if c == nil {
		return
	}
	c.Messages += n
	c.Words += n * words
}

// AddStall charges sec seconds of injected waiting (timeout, straggler
// delay, retry backoff). Safe on a nil receiver.
func (c *Cost) AddStall(sec float64) {
	if c == nil {
		return
	}
	c.StallSec += sec
}

// Add accumulates other into c.
func (c *Cost) Add(other Cost) {
	if c == nil {
		return
	}
	c.Flops += other.Flops
	c.Messages += other.Messages
	c.Words += other.Words
	c.StallSec += other.StallSec
}

// Sub returns c minus other, used to isolate the cost of a region.
func (c Cost) Sub(other Cost) Cost {
	return Cost{
		Flops:    c.Flops - other.Flops,
		Messages: c.Messages - other.Messages,
		Words:    c.Words - other.Words,
		StallSec: c.StallSec - other.StallSec,
	}
}

// Max returns the component-wise maximum of two costs. In a bulk
// synchronous run the critical path is the maximum over processors.
func (c Cost) Max(other Cost) Cost {
	out := c
	if other.Flops > out.Flops {
		out.Flops = other.Flops
	}
	if other.Messages > out.Messages {
		out.Messages = other.Messages
	}
	if other.Words > out.Words {
		out.Words = other.Words
	}
	if other.StallSec > out.StallSec {
		out.StallSec = other.StallSec
	}
	return out
}

// String implements fmt.Stringer. The stall term is printed only when
// present, so fault-free costs render as F, L and W alone.
func (c Cost) String() string {
	s := fmt.Sprintf("F=%d L=%d W=%d", c.Flops, c.Messages, c.Words)
	if c.StallSec != 0 {
		s += fmt.Sprintf(" stall=%.3gs", c.StallSec)
	}
	return s
}
