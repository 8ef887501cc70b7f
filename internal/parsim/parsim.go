// Package parsim holds the names the repository benchmark still
// imports for the event engine, which lives in internal/netsim.
package parsim

import "discs/internal/netsim"

// Engine is netsim.Engine.
type Engine = netsim.Engine

// Options is netsim.Options.
type Options = netsim.Options

// DefaultShards is netsim.DefaultShards.
const DefaultShards = netsim.DefaultShards

// Metric names, as netsim publishes them.
const (
	MetricEpochs  = netsim.MetricEpochs
	MetricStallNS = netsim.MetricStallNS
)

// MetricWorkerEvents is netsim.MetricWorkerEvents.
func MetricWorkerEvents(w int) string { return netsim.MetricWorkerEvents(w) }

// New re-lanes sim (netsim.Simulator.Relane).
func New(sim *netsim.Simulator, opts Options) (*Engine, error) { return sim.Relane(opts) }
