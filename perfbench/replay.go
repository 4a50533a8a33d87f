package main

import (
	"fmt"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/catalog"
	"oraclesize/internal/sim"
	"oraclesize/internal/tenant"
)

// replayStats times the core layers' public calls, one span per call.
type replayStats struct {
	requests, runs                            int
	auth, allow, generate, advise, run, check time.Duration
	messages                                  int64
	unitMS                                    float64 // campaign.RunShard time per unit (sweep only)
	err                                       error
}

// call times fn as a span named name under parent.
func call(tr *tracer, name string, trace, parent uint64, d *time.Duration, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	*d += end.Sub(start)
	tr.add(name, trace, 0, parent, start, end)
}

// replayServe sends the workload's request tuples straight through the
// layers the server would execute them on — tenant auth and admission,
// instance build, advice, simulation, check — for budget, in process.
func replayServe(src *tupleSource, budget time.Duration, tr *tracer) replayStats {
	var st replayStats
	reg, err := tenant.NewRegistry(src.tenants)
	if err != nil {
		st.err = err
		return st
	}
	cache := campaign.NewShardedCache(128, 8) // oracled's default instance cache
	deadline := time.Now().Add(budget)
	for i := int64(0); time.Now().Before(deadline); i++ {
		t := src.tuple(i)
		trace, root := tr.newID(), tr.newID()
		start := time.Now()
		var ten *tenant.Tenant
		ok := false
		call(tr, "tenant.auth", trace, root, &st.auth, func() {
			ten, ok = reg.Authenticate(src.tenants[i%int64(len(src.tenants))].Key)
		})
		if ok {
			call(tr, "tenant.allow", trace, root, &st.allow, func() { ok, _ = reg.Allow(ten) })
		}
		if err := replayCore(tr, trace, root, &st, t.family, t.n, t.seed, t.task, paperScheme[t.task], t.endpoint == "/v1/run", cache); err != nil || !ok {
			st.err = fmt.Errorf("replaying %s: %v (admitted %v)", t.body, err, ok)
			return st
		}
		tr.add("replay.request", trace, root, 0, start, time.Now())
		st.requests++
	}
	return st
}

// replayCore runs one instance/advice/simulate/check chain.
func replayCore(tr *tracer, trace, parent uint64, st *replayStats, family string, n int, seed int64, task, scheme string, simulate bool, cache *campaign.Cache) error {
	td, err := catalog.TaskByName(task)
	if err != nil {
		return err
	}
	sc, err := td.SchemeByName(scheme)
	if err != nil {
		return err
	}
	fam, err := catalog.FamilyByName(family)
	if err != nil {
		return err
	}
	var inst *campaign.Instance
	call(tr, "graphgen.generate", trace, parent, &st.generate, func() { inst, err = cache.Instance(fam, n, seed) })
	if err != nil {
		return err
	}
	var adv sim.Advice
	call(tr, "oracle.advise", trace, parent, &st.advise, func() { adv, err = inst.Advice(sc.NewOracle(0), 0) })
	if err != nil || !simulate {
		return err
	}
	g := inst.Graph()
	var res *sim.Result
	call(tr, "sim.run", trace, parent, &st.run, func() {
		res, err = sim.Run(g, 0, sc.Algo, adv, sim.Options{
			EnforceWakeup: td.EnforceWakeup, RetainNodes: td.NeedsNodes,
			MaxMessages: catalog.MessageBudget(g)})
	})
	if err != nil {
		return err
	}
	call(tr, "catalog.check", trace, parent, &st.check, func() { err = td.Check(res) })
	st.runs++
	st.messages += int64(res.Messages)
	return err
}

// coreMeanMS is the mean time per replayed request spent in the core
// layers (instance build, advice, simulation, check).
func (st replayStats) coreMeanMS() float64 {
	return ratio(ms(st.generate+st.advise+st.run+st.check), float64(st.requests))
}

func (st replayStats) metrics(m metricSet) {
	req := float64(st.requests)
	m.set("tenant.auth_us", 1000*ratio(ms(st.auth), req), "us")
	m.set("tenant.allow_us", 1000*ratio(ms(st.allow), req), "us")
	m.set("graphgen.generate_ms", ratio(ms(st.generate), req), "ms")
	m.set("oracle.advise_ms", ratio(ms(st.advise), req), "ms")
	m.set("sim.run_ms", ratio(ms(st.run), float64(st.runs)), "ms")
	m.set("sim.ns_per_message", ratio(float64(st.run), float64(st.messages)), "ns")
	m.set("catalog.check_us", 1000*ratio(ms(st.check), float64(st.runs)), "us")
	m.set("campaign.unit_ms", st.unitMS, "ms")
}
