package promtext_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"oraclesize/internal/cluster"
	"oraclesize/internal/membership"
	"oraclesize/internal/promtext"
	"oraclesize/internal/service"
	"oraclesize/internal/tenant"
)

func serve(t *testing.T, h http.Handler, method, path, key string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(data))
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestOracleherdPageWithHostileMemberID joins a worker whose self-chosen
// member ID holds a quote, a backslash, a tab and a newline, then parses
// the combined oracleherd /metrics page (coordinator plus fleet series)
// back line by line: the ID must come back intact as the worker label.
func TestOracleherdPageWithHostileMemberID(t *testing.T) {
	const id = "http://w\"1\\\t\n:8080"
	coord, err := cluster.New(cluster.Config{Elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	table := membership.NewTable(membership.Config{
		OnEvent: func(ev membership.Event) {
			if ev.Kind == membership.EventJoin {
				if err := coord.Join(ev.Member.ID); err != nil {
					t.Errorf("admitting %q: %v", ev.Member.ID, err)
				}
			}
		},
	})
	fleet := &membership.Server{Table: table, Advise: func() membership.Advice { return membership.Advice{} }}
	mux := http.NewServeMux()
	fleet.Routes(mux)
	if w := serve(t, mux, "POST", "/v1/fleet/join", "", membership.JoinRequest{ID: id}); w.Code != http.StatusOK {
		t.Fatalf("join: status %d: %s", w.Code, w.Body.String())
	}

	rec := httptest.NewRecorder()
	coord.Metrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fleet.WriteMetrics(rec.Body)
	samples, err := promtext.Parse(rec.Body.String())
	if err != nil {
		t.Fatalf("%v\npage:\n%s", err, rec.Body.String())
	}
	var up bool
	for _, s := range samples {
		if s.Name == "oracleherd_worker_up" {
			if s.Labels["worker"] != id || s.Value != 1 {
				t.Errorf("worker_up sample %+v, want worker %q up", s, id)
			}
			up = true
		}
	}
	if !up {
		t.Fatalf("no oracleherd_worker_up sample for the joined member")
	}
}

// TestOracledPageParses parses a multi-tenant oracled page back after
// served, unauthenticated and throttled requests.
func TestOracledPageParses(t *testing.T) {
	reg, err := tenant.NewRegistry([]tenant.Spec{
		{Name: "interactive", Key: "interactive-key", Weight: 4},
		{Name: "bulk", Key: "bulk-key-0000", Weight: 1, RatePerSec: 0.001, Burst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := service.New(service.Config{Tenants: reg, ArtifactDir: t.TempDir()})
	defer s.Stop()
	body := map[string]any{"family": "path", "n": 16, "seed": 1, "task": "wakeup"}
	for _, step := range []struct {
		key  string
		want int
	}{
		{"interactive-key", http.StatusOK},
		{"", http.StatusUnauthorized},
		{"bulk-key-0000", http.StatusOK},
		{"bulk-key-0000", http.StatusTooManyRequests},
	} {
		if w := serve(t, s.Handler(), "POST", "/v1/run", step.key, body); w.Code != step.want {
			t.Fatalf("key %q: status %d, want %d: %s", step.key, w.Code, step.want, w.Body.String())
		}
	}
	page := serve(t, s.Handler(), "GET", "/metrics", "", nil)
	if ct := page.Header().Get("Content-Type"); ct != promtext.ContentType {
		t.Errorf("Content-Type %q", ct)
	}
	samples, err := promtext.Parse(page.Body.String())
	if err != nil {
		t.Fatalf("%v\npage:\n%s", err, page.Body.String())
	}
	var throttled bool
	for _, smp := range samples {
		if smp.Name == "oracled_tenant_throttled_total" && smp.Labels["tenant"] == "bulk" && smp.Value == 1 {
			throttled = true
		}
	}
	if !throttled {
		t.Errorf("page lacks oracled_tenant_throttled_total{tenant=\"bulk\"} 1")
	}
}
