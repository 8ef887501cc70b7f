package flowexport

import (
	"discs/internal/core"
)

// Tap adapts a Collector to the border router's alarm-sample callback
// (§IV-F): install the returned function as BorderRouter.OnAlarm and
// the collector aggregates identified spoofing packets into flow
// records. proto is recorded on every flow key; the data-plane verdict
// path does not surface the transport protocol, and the controller's
// analysis groups by source AS anyway.
func Tap(c *Collector, proto uint8, sampleBytes int) func(core.AlarmSample) {
	return func(s core.AlarmSample) {
		c.observe(Key{Src: s.Src, Dst: s.Dst, Proto: proto, SrcAS: s.SrcAS}, sampleBytes, s.When)
	}
}
