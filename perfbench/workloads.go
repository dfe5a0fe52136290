package main

import (
	"fmt"

	"spire/internal/model"
	"spire/internal/sim"
)

// spec is one workload: a sim warehouse world, how many of its epochs
// warm the program up (counted in setup_s) and how many each timed pass
// measures.
type spec struct {
	name string
	why  string
	sim  sim.Config

	// warmup epochs run through the program before timing starts; timed
	// epochs follow them. Both are epoch times, so the timed window of
	// every pass covers the same input.
	warmup, timed model.Epoch

	cep   bool // attach the theft and misroute detectors (flow)
	zones int  // >0: run the world as a zone cluster over loopback TCP
}

// workloadNames lists the workloads in the order they are reported.
var workloadNames = []string{"flow", "stock", "zones"}

// workload returns the named workload. tiny shrinks every dimension so
// the whole pipeline runs in well under a second (the self-test uses it);
// the benchmark itself always runs full size.
func workload(name string, seed int64, tiny bool) (spec, error) {
	var s spec
	switch name {
	case "flow", "zones":
		s = flowSpec()
		if name == "zones" {
			// A zone pass is twice as fast as a flow pass; a longer timed
			// window averages over the scheduling of two workers and the
			// coordinator on shared cores.
			s.name, s.cep, s.zones, s.timed = "zones", false, 2, 2400
			s.why = "flow's world split over two zones behind a coordinator on loopback TCP: the only workload that runs federate"
		}
	case "stock":
		s = stockSpec()
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	s.sim.Seed = seed
	if tiny {
		s.shrink()
	}
	s.sim.Duration = s.warmup + s.timed
	return s, s.sim.Validate()
}

// flowSpec is the paper's warehouse lifecycle scaled up: pallets arrive,
// cases cross the receiving belt, shelve on 64 shelves, are repacked and
// leave, with thefts and misroutes injected for the CEP detectors. With
// 16 shelves a dozen cases share each shelf and the co-location edges
// between them made the cost per reading swing by a third from seed to
// seed; 64 shelves keep the same churn with steadier components.
func flowSpec() spec {
	c := sim.DefaultConfig()
	c.PalletInterval = 30
	c.CasesMin, c.CasesMax = 3, 5
	c.ItemsPerCase = 15
	c.NumShelves = 64
	c.ShelfPeriod = 20
	c.ShelfTime = 1500
	c.TheftInterval = 300
	c.MisrouteInterval = 400
	return spec{
		name:   "flow",
		why:    "churn path: arrivals, retirement, partial inference over many small components, compress, CEP and eventlog",
		sim:    c,
		warmup: 1800,
		timed:  1200,
		cep:    true,
	}
}

// stockSpec is a large resident inventory: big cases stream across the
// belt one per epoch onto 1000 shelves that are scanned together every 30
// epochs, and nothing ever leaves. With 1000 shelves most cases sit alone,
// so graph components stay pallet-sized on every seed; with 200 shelves
// co-located cases chain components across shelves on some seeds and not
// others, which doubled the cost of a light epoch from one seed to the
// next.
func stockSpec() spec {
	c := sim.DefaultConfig()
	c.PalletInterval = 5
	c.CasesMin, c.CasesMax = 5, 5
	c.ItemsPerCase = 60
	c.NumShelves = 1000
	c.ShelfPeriod = 30
	c.ShelfTime = 1 << 40 // resident: no case ever leaves its shelf
	c.BeltDwell = 1
	return spec{
		name:   "stock",
		why:    "graph scale: a large resident graph, complete-inference epochs set the tail, churn and retirement idle",
		sim:    c,
		warmup: 450,
		timed:  360,
	}
}

// shrink scales a spec down for the self-test.
func (s *spec) shrink() {
	s.warmup, s.timed = 120, 90
	if s.sim.NumShelves > 8 {
		s.sim.NumShelves = 8
	}
	if s.sim.ItemsPerCase > 6 {
		s.sim.ItemsPerCase = 6
	}
	s.sim.PalletInterval = 15
	if s.sim.ShelfTime < 1<<30 {
		s.sim.ShelfTime = 60
	}
	if s.sim.ShelfPeriod > 10 {
		s.sim.ShelfPeriod = 10
	}
	if s.sim.TheftInterval > 0 {
		s.sim.TheftInterval = 40
	}
	if s.sim.MisrouteInterval > 0 {
		s.sim.MisrouteInterval = 50
	}
}
