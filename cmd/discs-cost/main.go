// Command discs-cost prints the §VI-C resource-consumption table of
// the DISCS paper (controller memory/CPU/bandwidth, router SRAM/CAM
// and crypto throughput), parameterized by Internet scale.
package main

import (
	"flag"
	"log"
	"os"

	"discs/internal/cli"
	"discs/internal/cost"
)

func main() {
	cli.Init("discs-cost")
	prof := cli.RegisterProfileFlags()
	p := cost.Defaults()
	flag.IntVar(&p.NumASes, "ases", p.NumASes, "number of ASes")
	flag.IntVar(&p.NumPrefixes, "prefixes", p.NumPrefixes, "number of routable prefixes")
	flag.Float64Var(&p.RekeyDays, "rekey-days", p.RekeyDays, "key renegotiation period in days")
	flag.Float64Var(&p.AttacksPerDay, "attacks-per-day", p.AttacksPerDay, "global DDoS attack rate")
	flag.Float64Var(&p.ReactionSeconds, "reaction-seconds", p.ReactionSeconds, "invocation fan-out budget")
	flag.IntVar(&p.AvgPayload, "avg-payload", p.AvgPayload, "assumed mean payload bytes")
	flag.Parse()
	defer prof.Start()()

	if err := cost.WriteTable(os.Stdout, p); err != nil {
		log.Fatal(err)
	}
}
