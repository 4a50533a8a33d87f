package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"

	"oraclesize/internal/campaign"
	"oraclesize/internal/catalog"
	"oraclesize/internal/oracle"
	"oraclesize/internal/sim"
	"oraclesize/internal/tenant"
)

// tuple is one request's inputs: endpoint plus instance and task.
type tuple struct {
	endpoint string // "/v1/run" or "/v1/advice"
	family   string
	n        int
	seed     int64
	task     string // "wakeup" (tree scheme) or "broadcast" (light-tree scheme)
	body     []byte
	// want, when set, holds the outputs computed in-process; a response
	// must match them exactly.
	want *expectation
	// seen caches the first verified body: the response cache replays
	// identical bytes, so a repeat equal to it needs no re-parse.
	seen atomic.Pointer[[]byte]
}

// paperScheme is each task's scheme from the paper.
var paperScheme = map[string]string{"wakeup": "tree", "broadcast": "light-tree"}

func newTuple(endpoint, family string, n int, seed int64, task string) *tuple {
	t := &tuple{endpoint: endpoint, family: family, n: n, seed: seed, task: task}
	t.body = []byte(fmt.Sprintf(`{"family":%q,"n":%d,"seed":%d,"task":%q,"scheme":%q}`,
		family, n, seed, task, paperScheme[task]))
	return t
}

// tupleSource yields a run's requests: a fixed set cycled in order
// (serve-hot), or a fresh instance per request (serve-cold).
type tupleSource struct {
	tenants []tenant.Spec
	fixed   []*tuple
	fresh   func(i int64) *tuple
}

func (s *tupleSource) tuple(i int64) *tuple {
	if s.fixed != nil {
		return s.fixed[i%int64(len(s.fixed))]
	}
	return s.fresh(i)
}

// next is the source the load generator draws from; request i goes to
// tenant i mod the tenant count.
func (s *tupleSource) next(i int64) *request {
	t := s.tuple(i)
	return &request{
		path:   t.endpoint,
		body:   t.body,
		apiKey: s.tenants[i%int64(len(s.tenants))].Key,
		check:  t.check,
	}
}

var (
	hotFamilies  = []string{"random-sparse", "grid", "binary-tree", "hypercube"}
	hotSizes     = []int{64, 128}
	coldFamilies = []string{"random-sparse", "grid", "binary-tree", "hypercube", "random-regular", "torus"}
	coldSizes    = []int{64, 128, 256}
)

// hotTupleCount is the size of serve-hot's fixed set, far below the
// response cache's 4096 entries.
const hotTupleCount = 64

// pickEndpoint sends about three quarters of requests to /v1/run.
func pickEndpoint(r uint64) string {
	if r%4 == 0 {
		return "/v1/advice"
	}
	return "/v1/run"
}

func hotTuples(seed int64, tenants []tenant.Spec) (*tupleSource, error) {
	rng := rand.New(rand.NewSource(seed))
	cache := campaign.NewCache(hotTupleCount)
	src := &tupleSource{tenants: tenants}
	for k := 0; k < hotTupleCount; k++ {
		t := newTuple(pickEndpoint(rng.Uint64()),
			hotFamilies[rng.Intn(len(hotFamilies))], hotSizes[rng.Intn(len(hotSizes))],
			seed*1000+int64(rng.Intn(4)), []string{"wakeup", "broadcast"}[rng.Intn(2)])
		want, err := expect(t, cache)
		if err != nil {
			return nil, err
		}
		t.want = want
		src.fixed = append(src.fixed, t)
	}
	return src, nil
}

func coldTuples(seed int64, tenants []tenant.Spec) (*tupleSource, error) {
	return &tupleSource{tenants: tenants, fresh: func(i int64) *tuple {
		h := splitmix(uint64(seed)*0x9E3779B97F4A7C15 + uint64(i))
		// The instance seed embeds the request index: never reused in a run.
		return newTuple(pickEndpoint(h), coldFamilies[(h>>8)%uint64(len(coldFamilies))],
			coldSizes[(h>>16)%uint64(len(coldSizes))], seed<<32+i,
			[]string{"wakeup", "broadcast"}[(h>>24)&1])
	}}, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// expectation is a tuple's outputs computed in-process.
type expectation struct {
	nodes, edges           int
	totalBits, maxNodeBits int
	adviceBits, messages   int
}

// expect computes t's outputs through the same catalog, instance cache
// and simulator the server uses.
func expect(t *tuple, cache *campaign.Cache) (*expectation, error) {
	td, err := catalog.TaskByName(t.task)
	if err != nil {
		return nil, err
	}
	sc, err := td.SchemeByName(paperScheme[t.task])
	if err != nil {
		return nil, err
	}
	fam, err := catalog.FamilyByName(t.family)
	if err != nil {
		return nil, err
	}
	inst, err := cache.Instance(fam, t.n, t.seed)
	if err != nil {
		return nil, err
	}
	g := inst.Graph()
	adv, err := inst.Advice(sc.NewOracle(0), 0)
	if err != nil {
		return nil, err
	}
	st := oracle.Stats(adv)
	e := &expectation{nodes: g.N(), edges: g.M(), totalBits: st.TotalBits,
		maxNodeBits: st.MaxNodeBits, adviceBits: adv.SizeBits()}
	if t.endpoint == "/v1/run" {
		res, err := sim.Run(g, 0, sc.Algo, adv, sim.Options{
			EnforceWakeup: td.EnforceWakeup, RetainNodes: td.NeedsNodes,
			MaxMessages: catalog.MessageBudget(g)})
		if err != nil {
			return nil, err
		}
		if err := td.Check(res); err != nil {
			return nil, fmt.Errorf("local run of %s: %v", t.body, err)
		}
		e.messages = res.Messages
	}
	return e, nil
}

type runBody struct {
	Family     string `json:"family"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Task       string `json:"task"`
	Scheme     string `json:"scheme"`
	AdviceBits int    `json:"advice_bits"`
	Messages   int    `json:"messages"`
	Informed   int    `json:"informed"`
	Complete   bool   `json:"complete"`
	CheckError string `json:"check_error"`
}

type adviceBody struct {
	Family        string `json:"family"`
	Nodes         int    `json:"nodes"`
	Edges         int    `json:"edges"`
	Task          string `json:"task"`
	Scheme        string `json:"scheme"`
	TotalBits     int    `json:"total_bits"`
	MaxNodeBits   int    `json:"max_node_bits"`
	NonEmptyNodes int    `json:"nonempty_nodes"`
}

// check validates a 200 body against the paper's bounds and, when known,
// the in-process expectation.
func (t *tuple) check(body []byte) error {
	if p := t.seen.Load(); p != nil && bytes.Equal(*p, body) {
		return nil
	}
	var err error
	if t.endpoint == "/v1/run" {
		err = t.checkRun(body)
	} else {
		err = t.checkAdvice(body)
	}
	if err == nil && t.want != nil {
		b := append([]byte(nil), body...)
		t.seen.CompareAndSwap(nil, &b)
	}
	return err
}

func (t *tuple) checkRun(body []byte) error {
	var r runBody
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	switch {
	case r.Family != t.family || r.Task != t.task || r.Scheme != paperScheme[t.task]:
		return fmt.Errorf("echoed %s/%s/%s", r.Family, r.Task, r.Scheme)
	case !r.Complete || r.CheckError != "":
		return fmt.Errorf("incomplete run: %q", r.CheckError)
	case r.Nodes < 2 || r.Informed != r.Nodes:
		return fmt.Errorf("informed %d of %d nodes", r.Informed, r.Nodes)
	case t.task == "wakeup" && r.Messages != r.Nodes-1:
		return fmt.Errorf("tree wakeup sent %d messages, want n-1 = %d", r.Messages, r.Nodes-1)
	case t.task == "broadcast" && r.Messages > 3*(r.Nodes-1):
		return fmt.Errorf("light-tree broadcast sent %d messages, bound 3(n-1) = %d", r.Messages, 3*(r.Nodes-1))
	}
	if w := t.want; w != nil && (r.Nodes != w.nodes || r.Edges != w.edges ||
		r.Messages != w.messages || r.AdviceBits != w.adviceBits) {
		return fmt.Errorf("got n=%d m=%d messages=%d advice_bits=%d, want %d %d %d %d",
			r.Nodes, r.Edges, r.Messages, r.AdviceBits, w.nodes, w.edges, w.messages, w.adviceBits)
	}
	return nil
}

func (t *tuple) checkAdvice(body []byte) error {
	var a adviceBody
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	switch {
	case a.Family != t.family || a.Task != t.task || a.Scheme != paperScheme[t.task]:
		return fmt.Errorf("echoed %s/%s/%s", a.Family, a.Task, a.Scheme)
	case a.Nodes < 2 || a.NonEmptyNodes > a.Nodes || a.MaxNodeBits > a.TotalBits:
		return fmt.Errorf("inconsistent advice stats %+v", a)
	}
	if w := t.want; w != nil && (a.Nodes != w.nodes || a.Edges != w.edges ||
		a.TotalBits != w.totalBits || a.MaxNodeBits != w.maxNodeBits) {
		return fmt.Errorf("got n=%d m=%d total_bits=%d max_node_bits=%d, want %d %d %d %d",
			a.Nodes, a.Edges, a.TotalBits, a.MaxNodeBits, w.nodes, w.edges, w.totalBits, w.maxNodeBits)
	}
	return nil
}
