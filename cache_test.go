package gcx_test

import (
	"fmt"
	"sync"
	"testing"

	"gcx"
)

func TestQueryCacheHitAndReuse(t *testing.T) {
	c := gcx.NewQueryCache(4)
	const src = `<out>{ for $b in /bib/book return $b/title }</out>`
	q1, err := c.Get(src)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Get(src)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("second Get returned a different *Query")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	out, _, err := q1.ExecuteString("<bib><book><title>x</title></book></bib>", gcx.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out != "<out><title>x</title></out>" {
		t.Errorf("cached query output = %q", out)
	}
}

func TestQueryCacheOptionsKey(t *testing.T) {
	c := gcx.NewQueryCache(4)
	const src = `<out>{ for $b in /bib/book return $b/title }</out>`
	qa, err := c.GetWithOptions(src, gcx.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := c.GetWithOptions(src, gcx.CompileOptions{StrictStreaming: true})
	if err != nil {
		t.Fatal(err)
	}
	if qa == qb {
		t.Error("distinct CompileOptions must not share a cache slot")
	}
}

func TestQueryCacheEviction(t *testing.T) {
	c := gcx.NewQueryCache(2)
	srcs := []string{
		`<a>{ /x/y }</a>`,
		`<b>{ /x/y }</b>`,
		`<c>{ /x/y }</c>`,
	}
	first := make([]*gcx.Query, len(srcs))
	for i, s := range srcs {
		q, err := c.Get(s)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = q
	}
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	// srcs[0] was evicted by srcs[2]; getting it again recompiles.
	q, err := c.Get(srcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if q == first[0] {
		t.Error("evicted query was still served from cache")
	}
	// srcs[2] is still cached.
	q2, err := c.Get(srcs[2])
	if err != nil {
		t.Fatal(err)
	}
	if q2 != first[2] {
		t.Error("resident query was recompiled")
	}
}

func TestQueryCacheErrorNotCached(t *testing.T) {
	c := gcx.NewQueryCache(4)
	if _, err := c.Get("for $x in"); err == nil {
		t.Fatal("expected compile error")
	}
	if c.Len() != 0 {
		t.Errorf("failed compilation left %d cache entries", c.Len())
	}
	if _, err := c.Get("for $x in"); err == nil {
		t.Fatal("expected compile error on retry")
	}
	_, misses := c.Stats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2 (errors are not cached)", misses)
	}
}

// TestQueryCacheConcurrent hammers one cache from many goroutines over
// a small key set with a capacity that forces constant eviction, and
// executes every returned query. Run with -race.
func TestQueryCacheConcurrent(t *testing.T) {
	c := gcx.NewQueryCache(3)
	srcs := make([]string, 6)
	for i := range srcs {
		srcs[i] = fmt.Sprintf(`<out%d>{ for $b in /bib/book return $b/title }</out%d>`, i, i)
	}
	doc := "<bib><book><title>x</title></book></bib>"

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				src := srcs[(g+r)%len(srcs)]
				q, err := c.Get(src)
				if err != nil {
					errs <- err
					return
				}
				if _, _, err := q.ExecuteString(doc, gcx.Options{}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
