package ws

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	rel "repro/internal/relational"
	"repro/internal/schema"
)

func TestHTTPRejectsNonPost(t *testing.T) {
	_, _, url := startRegistry(t, 0)
	resp, err := http.Get(url + "/ws/Beijing/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status: %d", resp.StatusCode)
	}
}

func TestHTTPPathErrors(t *testing.T) {
	_, _, url := startRegistry(t, 0)
	cases := []struct {
		path string
		want int
	}{
		{"/ws/", http.StatusNotFound},
		{"/ws/Beijing", http.StatusNotFound},
		{"/ws/Beijing/query/extra", http.StatusNotFound},
		{"/ws/Atlantis/query", http.StatusNotFound},
		{"/ws/Beijing/teleport", http.StatusNotFound},
	}
	for _, c := range cases {
		resp, err := http.Post(url+c.path, "application/xml", strings.NewReader("<Query/>"))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
}

func TestHTTPMalformedXML(t *testing.T) {
	_, _, url := startRegistry(t, 0)
	resp, err := http.Post(url+"/ws/Beijing/query", "application/xml",
		strings.NewReader("<not closed"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed XML status: %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "parse") {
		t.Errorf("error body: %s", body)
	}
}

func TestHTTPContentTypeSet(t *testing.T) {
	_, svc, url := startRegistry(t, 0)
	seedCustomers(t, svc.Database(), 1)
	resp, err := http.Post(url+"/ws/Beijing/query", "application/xml",
		strings.NewReader(`<Query table="Customers"/>`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/xml" {
		t.Errorf("content type: %q", ct)
	}
}

func TestLargeResultSetRoundTrip(t *testing.T) {
	_, svc, url := startRegistry(t, 0)
	tab := svc.Database().MustTable("Customers")
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tab.Insert(rel.Row{
			rel.NewInt(int64(i)), rel.NewString(fmt.Sprintf("Name %d with a longer payload", i)),
			rel.NewString("Some Street 123, Apartment 45"), rel.NewString("Beijing"),
			rel.NewString("+86-555-0101010"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := NewClient(url, schema.SysBeijing, nil).QueryRelation("Customers")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != n {
		t.Fatalf("large result set: %d rows", got.Len())
	}
}
