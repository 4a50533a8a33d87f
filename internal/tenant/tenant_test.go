package tenant

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNewRegistryValidation(t *testing.T) {
	valid := Spec{Name: "alpha", Key: "alpha-secret"}
	cases := []struct {
		name  string
		specs []Spec
		want  string
	}{
		{"empty", nil, "at least one"},
		{"bad name", []Spec{{Name: "a b", Key: "long-enough"}}, "not [A-Za-z0-9_-]+"},
		{"reserved anonymous", []Spec{{Name: "anonymous", Key: "long-enough"}}, "reserved"},
		{"reserved unknown", []Spec{{Name: "unknown", Key: "long-enough"}}, "reserved"},
		{"dup name", []Spec{valid, {Name: "alpha", Key: "other-secret"}}, "duplicate name"},
		{"short key", []Spec{{Name: "alpha", Key: "short"}}, "shorter than"},
		{"dup key", []Spec{valid, {Name: "beta", Key: "alpha-secret"}}, "already registered"},
		{"negative", []Spec{{Name: "alpha", Key: "alpha-secret", Weight: -1}}, "negative limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewRegistry(tc.specs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestNewRegistryTooMany(t *testing.T) {
	specs := make([]Spec, MaxTenants+1)
	for i := range specs {
		specs[i] = Spec{Name: "t" + itoa(i), Key: "secret-key-" + itoa(i)}
	}
	if _, err := NewRegistry(specs); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("error %v, want cap exceeded", err)
	}
	if _, err := NewRegistry(specs[:MaxTenants]); err != nil {
		t.Fatalf("exactly MaxTenants should load: %v", err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestRegistryDefaults(t *testing.T) {
	r, err := NewRegistry([]Spec{{Name: "alpha", Key: "alpha-secret", RatePerSec: 50}})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Tenants()[0]
	if got.Spec.Weight != 1 {
		t.Fatalf("default weight = %d, want 1", got.Spec.Weight)
	}
	if got.Spec.Burst != 50 {
		t.Fatalf("default burst = %v, want rate 50", got.Spec.Burst)
	}
	if got.Spec.Key != "" {
		t.Fatal("raw key retained on tenant")
	}
	// An admission spends a whole token, so a slow rate's default burst
	// and an explicit fractional burst are both raised to one.
	r, err = NewRegistry([]Spec{
		{Name: "slow", Key: "slow-secret", RatePerSec: 0.5},
		{Name: "frac", Key: "frac-secret", RatePerSec: 5, Burst: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range r.Tenants() {
		if tn.Spec.Burst != 1 {
			t.Errorf("%s: burst = %v, want 1", tn.Spec.Name, tn.Spec.Burst)
		}
		if ok, _ := r.Allow(tn); !ok {
			t.Errorf("%s: first request refused", tn.Spec.Name)
		}
	}
}

func TestAuthenticate(t *testing.T) {
	r, err := NewRegistry([]Spec{
		{Name: "alpha", Key: "alpha-secret"},
		{Name: "beta", Key: "beta-secret-key"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key, want string
	}{
		{"alpha-secret", "alpha"},
		{"beta-secret-key", "beta"},
	} {
		got, ok := r.Authenticate(tc.key)
		if !ok || got.Spec.Name != tc.want {
			t.Fatalf("Authenticate(%q) = %v, %v; want %s", tc.key, got, ok, tc.want)
		}
	}
	for _, bad := range []string{"", "alpha-secret ", "Alpha-secret", "alpha-secre", "alpha-secrets"} {
		if got, ok := r.Authenticate(bad); ok {
			t.Fatalf("Authenticate(%q) matched tenant %s", bad, got.Spec.Name)
		}
	}
}

// TestAuthenticateScansAllTenants pins the constant-time shape of the
// lookup: a match early in the registry must not short-circuit the scan,
// which we can observe by a later tenant with the same digest being
// unreachable at registration (enforced), and by the scan result being
// the match index regardless of position.
func TestAuthenticateScansAllTenants(t *testing.T) {
	specs := make([]Spec, 64)
	for i := range specs {
		specs[i] = Spec{Name: "t" + itoa(i), Key: "secret-key-" + itoa(i)}
	}
	r, err := NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	// First, last, and middle positions must all resolve identically.
	for _, i := range []int{0, 31, 63} {
		got, ok := r.Authenticate("secret-key-" + itoa(i))
		if !ok || got.Spec.Name != "t"+itoa(i) {
			t.Fatalf("position %d failed to authenticate", i)
		}
	}
}

func TestLoadKeyfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.json")
	doc := `{"tenants": [
		{"name": "research", "key": "research-key-1", "weight": 4, "rate_per_sec": 100, "labels": {"team": "theory"}},
		{"name": "ci", "key": "ci-key-00000", "max_queue_slots": 8}
	]}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := LoadKeyfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tenants()) != 2 {
		t.Fatalf("loaded %d tenants, want 2", len(r.Tenants()))
	}
	research, ok := r.Authenticate("research-key-1")
	if !ok || research.Spec.Weight != 4 || research.Spec.Labels["team"] != "theory" {
		t.Fatalf("research tenant mis-loaded: %+v", research)
	}
	ci, ok := r.Authenticate("ci-key-00000")
	if !ok || ci.Spec.MaxQueueSlots != 8 {
		t.Fatalf("ci tenant mis-loaded: %+v", ci)
	}
}

func TestLoadKeyfileRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.json")
	doc := `{"tenants": [{"name": "a", "key": "long-enough", "rate_per_second": 5}]}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeyfile(path); err == nil {
		t.Fatal("typoed field accepted; want unknown-field error")
	}
}

func TestLoadKeyfileMissing(t *testing.T) {
	if _, err := LoadKeyfile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing keyfile accepted")
	}
}

func TestAllowRateLimit(t *testing.T) {
	r, err := NewRegistry([]Spec{{Name: "a", Key: "long-enough", RatePerSec: 10, Burst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	tn := r.Tenants()[0]

	// Burst of 2 admits two back-to-back, then refuses.
	for i := 0; i < 2; i++ {
		if ok, _ := r.Allow(tn); !ok {
			t.Fatalf("request %d within burst refused", i)
		}
	}
	ok, retry := r.Allow(tn)
	if ok {
		t.Fatal("third instantaneous request admitted over burst")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 100ms] at 10/s", retry)
	}

	// After the advertised wait, exactly one token is back.
	now = now.Add(retry)
	if ok, _ := r.Allow(tn); !ok {
		t.Fatal("request refused after waiting the advertised Retry-After")
	}
	if ok, _ := r.Allow(tn); ok {
		t.Fatal("second request admitted without further refill")
	}

	// A long idle period refills only to burst, not beyond.
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := r.Allow(tn); !ok {
			t.Fatalf("request %d within refilled burst refused", i)
		}
	}
	if ok, _ := r.Allow(tn); ok {
		t.Fatal("burst ceiling not enforced after idle refill")
	}
}

// TestAdoptBucketsCarriesSpentTokens pins the hot-reload bucket contract:
// a rate-limited tenant's spent tokens survive the swap (a reload is not
// a free refill), clamped to the new burst, while a previously unlimited
// tenant starts a newly tightened policy with its full burst — it has no
// spend history to carry.
func TestAdoptBucketsCarriesSpentTokens(t *testing.T) {
	now := time.Unix(2000, 0)
	clock := func() time.Time { return now }
	old, err := NewRegistry([]Spec{
		{Name: "spent", Key: "spent-key-000", RatePerSec: 1, Burst: 4},
		{Name: "fresh", Key: "fresh-key-000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	old.SetClock(clock)
	for i := 0; i < 4; i++ {
		if ok, _ := old.Allow(old.Tenants()[0]); !ok {
			t.Fatalf("request %d within burst refused", i)
		}
	}

	next, err := NewRegistry([]Spec{
		{Name: "spent", Key: "spent-key-000", RatePerSec: 1, Burst: 2},
		{Name: "fresh", Key: "fresh-key-000", RatePerSec: 1, Burst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	next.AdoptBuckets(old)

	// spent drained its bucket before the swap: still refused.
	if ok, _ := next.Allow(next.Tenants()[0]); ok {
		t.Error("drained bucket refilled by reload")
	}
	// fresh was unlimited before: the tightened policy starts at burst.
	for i := 0; i < 2; i++ {
		if ok, _ := next.Allow(next.Tenants()[1]); !ok {
			t.Fatalf("newly limited tenant refused request %d within its first burst", i)
		}
	}
	if ok, _ := next.Allow(next.Tenants()[1]); ok {
		t.Error("newly limited tenant exceeded its burst")
	}
	// The fake clock rode along with the buckets.
	now = now.Add(time.Second)
	if ok, _ := next.Allow(next.Tenants()[0]); !ok {
		t.Error("spent tenant refused after one virtual second of refill")
	}
}

func TestAllowUnlimited(t *testing.T) {
	r, err := NewRegistry([]Spec{{Name: "a", Key: "long-enough"}})
	if err != nil {
		t.Fatal(err)
	}
	tn := r.Tenants()[0]
	for i := 0; i < 1000; i++ {
		if ok, _ := r.Allow(tn); !ok {
			t.Fatal("unlimited tenant throttled")
		}
	}
}

// FuzzLoadKeyfile writes arbitrary bytes as a keyfile. Loading must never
// panic, and must either fail or yield a registry within the tenant cap
// whose every tenant is usable: a valid unique name, no retained raw key,
// a positive weight, and — for a rated tenant — a first request that is
// admitted and, once the burst is spent, a refusal with a positive
// Retry-After.
func FuzzLoadKeyfile(f *testing.F) {
	f.Add([]byte(`{"tenants": [
		{"name": "research", "key": "research-key-1", "weight": 4, "rate_per_sec": 100, "labels": {"team": "theory"}},
		{"name": "ci", "key": "ci-key-00000", "max_queue_slots": 8}]}`))
	f.Add([]byte(`{"tenants": [{"name": "capped", "key": "capped-ci-key-01", "weight": 1, "rate_per_sec": 0.01, "burst": 2}]}`))
	f.Add([]byte(`{"tenants": [{"name": "slow", "key": "slow-key-0000", "rate_per_sec": 0.5}]}`))
	f.Add([]byte(`{"tenants": [{"name": "a", "key": "long-enough", "rate_per_second": 5}]}`))
	f.Add([]byte(`{"tenants": [{"name": "a", "key": "key-aaaaaaaa"}, {"name": "a", "key": "key-bbbbbbbb"}]}`))
	f.Add([]byte(`{"tenants": [{"name": "glacial", "key": "glacial-key-1", "rate_per_sec": 1e-12}]}`))
	f.Add([]byte(`{"tenants": []}`))
	f.Add([]byte(`{"tenants": [{"name": "a", "key": "key-aaaaaaaa"}]}{"tenants": []}`))
	f.Add([]byte(`[{"name": "a", "key": "key-aaaaaaaa"}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "keys.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := LoadKeyfile(path)
		if err != nil {
			if r != nil {
				t.Fatalf("LoadKeyfile returned a registry with error %v", err)
			}
			return
		}
		if !json.Valid(data) {
			t.Fatalf("loaded a keyfile that is not one JSON document: %q", data)
		}
		tenants := r.Tenants()
		if len(tenants) < 1 || len(tenants) > MaxTenants {
			t.Fatalf("registry holds %d tenants, want 1..%d", len(tenants), MaxTenants)
		}
		now := time.Unix(1700000000, 0)
		r.SetClock(func() time.Time { return now })
		names := make(map[string]bool, len(tenants))
		for _, tn := range tenants {
			sp := tn.Spec
			if !validName(sp.Name) || reserved[sp.Name] || names[sp.Name] {
				t.Fatalf("tenant name %q is invalid, reserved or repeated", sp.Name)
			}
			names[sp.Name] = true
			if sp.Key != "" {
				t.Fatalf("tenant %q retained its raw key", sp.Name)
			}
			if sp.Weight < 1 {
				t.Fatalf("tenant %q has weight %d", sp.Name, sp.Weight)
			}
			if sp.RatePerSec <= 0 {
				continue
			}
			if ok, _ := r.Allow(tn); !ok {
				t.Fatalf("tenant %q (rate %g, burst %g) refused its first request", sp.Name, sp.RatePerSec, sp.Burst)
			}
			if sp.Burst > 64 {
				continue
			}
			for i := 0; i < 64; i++ {
				if ok, wait := r.Allow(tn); !ok {
					if wait <= 0 {
						t.Fatalf("tenant %q (rate %g, burst %g) refused with Retry-After %v", sp.Name, sp.RatePerSec, sp.Burst, wait)
					}
					break
				}
			}
		}
	})
}
