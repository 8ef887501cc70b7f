package core_test

import (
	"fmt"

	"discs/internal/core"
)

// Parse an operator's invocation triples (§IV-E: who, which, how long).
func ExampleParseInvocations() {
	invs, err := core.ParseInvocations("192.0.2.0/24+198.51.100.0/24:CDP:2h:alarm, 203.0.113.0/24:DP")
	if err != nil {
		panic(err)
	}
	for _, inv := range invs {
		fmt.Println(inv.Function, inv.Duration, inv.Alarm, len(inv.Prefixes))
	}
	// Output:
	// CDP 2h0m0s true 2
	// DP 24h0m0s false 1
}
