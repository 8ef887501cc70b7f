package main

import (
	"fmt"
	"io"
	"time"
)

// runConfig is what a workload gets: the driver's arguments, the tracer
// when this is the traced run, and a size divisor the unit tests use to
// run every workload's oracle at a thousandth of its size.
type runConfig struct {
	seed    int64
	seconds float64
	tracer  *tracer // nil on the untraced run
	scale   int     // 1 = full size
	log     io.Writer
}

func (c runConfig) traced() bool { return c.tracer != nil }

// scaled shrinks a full-size count by the config's scale, never below
// floor.
func (c runConfig) scaled(n, floor int) int {
	n /= c.scale
	if n < floor {
		return floor
	}
	return n
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// budget is the measuring time the driver asked for.
func (c runConfig) budget() time.Duration { return seconds(c.seconds) }

// anotherRound decides whether a workload starts one more fixed-size
// round: always a first one, then for as long as at least half of the
// next round (taken to last as long as the previous) fits in the
// measuring time. Rounds are not cut short, so that counts stay exact.
func (c runConfig) anotherRound(begin time.Time, roundS []float64) bool {
	if len(roundS) == 0 {
		return true
	}
	return time.Since(begin)+seconds(roundS[len(roundS)-1])/2 <= c.budget()
}

func (c runConfig) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, format+"\n", args...)
	}
}

// maxNotes bounds how many oracle mismatches a result describes; the
// count of failed operations is always exact.
const maxNotes = 8

// result is one workload run: operations attempted and failed against
// the oracle, and every metric the run measured, by catalog name.
//
// A failed operation is one that did not end the way the generator's
// oracle says it should. Some of those are only lost: a packet the
// transport kept refusing, or one the victim's full inbound queue threw
// away and counted, on a box that stalled. The program did what it says
// it does under overload; the operation failed, the output is not
// wrong. The others are wrong: a spoofed packet delivered, a legitimate
// one dropped by a verifier, a counter that does not add up. Any wrong
// operation makes the run incorrect.
type result struct {
	attempted, failed, wrong int64
	notes                    []string
	m                        map[string]float64
}

func newResult() *result { return &result{m: make(map[string]float64)} }

// correct reports that nothing the program did contradicts the oracle.
func (r *result) correct() bool { return r.wrong == 0 }

// put records a metric; a name outside the catalog is a harness bug.
func (r *result) put(name string, v float64) {
	if _, ok := metricByName(name); !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	r.m[name] = v
}

// lose books n attempted operations of which lost failed without the
// program having done anything wrong.
func (r *result) lose(n, lost int64, format string, args ...any) {
	r.attempted += n
	if lost > 0 {
		r.failed += lost
		r.note("lost: "+format, args...)
	}
}

// violate books n attempted operations of which bad ended in a way the
// program must never let them end.
func (r *result) violate(n, bad int64, format string, args ...any) {
	r.attempted += n
	if bad > 0 {
		r.failed += bad
		r.wrong += bad
		r.note("WRONG: "+format, args...)
	}
}

// check books one attempted operation that is wrong unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	var bad int64
	if !ok {
		bad = 1
	}
	r.violate(1, bad, format, args...)
}

func (r *result) note(format string, args ...any) {
	if len(r.notes) < maxNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// medianSetup runs setup n times, keeps the last product for the
// measured run, tears the others down, and returns the median set-up
// time: one cold set-up per process would put page-fault and scheduler
// luck straight into setup_s.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < n-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	return last, median(times), nil
}
