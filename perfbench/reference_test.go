package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestReferenceAnswersWithTheBody(t *testing.T) {
	srv := httptest.NewServer(referenceHandler())
	defer srv.Close()
	body := []byte(`{"family":"grid","n":64,"seed":7,"task":"wakeup"}`)
	var works []string
	for _, path := range []string{"/echo", "/work", "/work"} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, body) {
			t.Fatalf("%s: status %d, body %q", path, resp.StatusCode, got)
		}
		works = append(works, resp.Header.Get("X-Work"))
	}
	if works[0] != "" || works[1] == "" || works[1] != works[2] {
		t.Fatalf("X-Work headers %q: want none on /echo and one repeatable value on /work", works)
	}
	src := referenceSource("/work", func(i int64) *request { return &request{body: body} })
	r := src(0)
	if r.check(body) != nil || r.check(body[1:]) == nil {
		t.Fatal("reference check must accept the body and only the body")
	}
}

func BenchmarkRefWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		refWork(uint64(i))
	}
}
