package main

import "time"

// schedule is the open-loop generator's timetable: frame i (0-based) is
// due at start + i*period whatever happened to earlier frames, so a stall
// in the system shows as latency on every frame behind it instead of
// slowing the offered load. A zero period is a burst: every frame is due
// at start.
type schedule struct {
	start  int64
	period int64
}

func newSchedule(start int64, rateHz float64) schedule {
	if rateHz <= 0 {
		return schedule{start: start}
	}
	return schedule{start: start, period: int64(float64(time.Second) / rateHz)}
}

// due returns the instant frame i is due.
func (s schedule) due(i int) int64 { return s.start + int64(i)*s.period }

// count returns how many frames fall due in [start, start+window).
func (s schedule) count(window time.Duration) int {
	if s.period == 0 {
		return 0
	}
	return int((int64(window) + s.period - 1) / s.period)
}

// lateness is how late the generator started frame i beyond both its due
// time and the end of the previous inject: sleep overshoot and generator
// overhead, not time the system under test spent accepting earlier frames.
func lateness(due, injStart, prevInjEnd int64) int64 {
	ready := max(due, prevInjEnd)
	if injStart <= ready {
		return 0
	}
	return injStart - ready
}
