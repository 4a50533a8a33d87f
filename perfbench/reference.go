package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The reference server is a stdlib net/http server that answers each
// request with its own body: /echo at once, /work after a fixed piece of
// graph-like CPU work (refWork). It runs as a separate process, placed
// like oracled for the serve workloads and unpinned beside the in-process
// fleet for sweep-fleet, and each workload measures it in chunks
// interleaved with its own, over the same number of connections. It
// shares no code with the program under test, so a change to the program
// leaves it unmoved, while a slow spell of the shared host (CPU steal,
// cache or wake-up contention from other tenants) slows both alike. The
// gated throughput and latency are the program's figures divided by the
// reference's from the same round, which cancels most of those spells.

// runReference serves on addr until SIGTERM or SIGINT.
func runReference(addr string, stderr io.Writer) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench reference: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: referenceHandler(), ReadHeaderTimeout: 5 * time.Second}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-stop
		srv.Close()
	}()
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		fmt.Fprintf(stderr, "perfbench reference: %v\n", err)
		return 1
	}
	return 0
}

func referenceHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok\n")) })
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) { answer(w, r, false) })
	mux.HandleFunc("POST /work", func(w http.ResponseWriter, r *http.Request) { answer(w, r, true) })
	return mux
}

// answer writes the request body back; with work it first runs refWork
// seeded from the body and reports its checksum in a header, so the work
// cannot be skipped.
func answer(w http.ResponseWriter, r *http.Request, work bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if work {
		h := fnv.New64a()
		h.Write(body)
		w.Header().Set("X-Work", strconv.FormatUint(refWork(h.Sum64()), 16))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// refWorkNodes and refWorkRounds size refWork at a few hundred
// microseconds of one CPU, the order of one serve-cold request.
// refRetained graphs stay live, as oracled's caches keep instances, so
// the reference's heap and garbage collection resemble the program's.
const (
	refWorkNodes  = 256
	refWorkRounds = 8
	refRetained   = 2048
)

var retained struct {
	sync.Mutex
	graphs [refRetained][][]int32
	next   int
}

func retain(adj [][]int32) {
	retained.Lock()
	retained.graphs[retained.next%refRetained] = adj
	retained.next++
	retained.Unlock()
}

// refWork builds refWorkRounds random sparse graphs (a random spanning
// tree plus as many random edges again, as adjacency slices with an edge
// set to drop duplicates) and runs a BFS over each: allocation, hashing and
// pointer chasing in the proportions of the program's graph work.
func refWork(seed uint64) uint64 {
	var sum uint64
	for r := 0; r < refWorkRounds; r++ {
		x := splitmix(seed + uint64(r))
		adj := make([][]int32, refWorkNodes)
		seen := make(map[uint64]struct{}, 2*refWorkNodes)
		link := func(u, v int) {
			if u == v {
				return
			}
			key := uint64(min(u, v))<<32 | uint64(max(u, v))
			if _, ok := seen[key]; ok {
				return
			}
			seen[key] = struct{}{}
			adj[u] = append(adj[u], int32(v))
			adj[v] = append(adj[v], int32(u))
		}
		for v := 1; v < refWorkNodes; v++ {
			x = splitmix(x)
			link(v, int(x%uint64(v)))
		}
		for e := 0; e < refWorkNodes; e++ {
			x = splitmix(x)
			link(int(x%refWorkNodes), int((x>>32)%refWorkNodes))
		}
		dist := make([]int32, refWorkNodes)
		for i := range dist {
			dist[i] = -1
		}
		dist[0] = 0
		queue := []int32{0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for v, d := range dist {
			sum = splitmix(sum ^ uint64(v)<<32 ^ uint64(d))
		}
		retain(adj)
	}
	return sum
}

// referenceSource turns a workload's source into reference requests on
// path (/echo or /work): the same bodies, checked to come back unchanged.
func referenceSource(path string, src source) source {
	return func(i int64) *request {
		body := src(i).body
		return &request{
			path: path,
			body: body,
			check: func(got []byte) error {
				if !bytes.Equal(got, body) {
					return fmt.Errorf("reference %s answered %d bytes for %d sent", path, len(got), len(body))
				}
				return nil
			},
		}
	}
}
