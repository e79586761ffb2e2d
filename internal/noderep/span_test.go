package noderep

import (
	"testing"

	"natix/internal/records"
)

// TestSkipStopsAtProxies walks a record's children with Skip and
// ChildSpan and checks where it stops: in front of the wanted child, at a
// proxy, at the content's end, and at -1 for a proxy that crosses the end
// of its parent's content.
func TestSkipStopsAtProxies(t *testing.T) {
	target := records.RID{Page: 7, Slot: 3}
	root := NewAggregate(10)
	root.AppendChild(NewTextLiteral("one"))
	root.AppendChild(NewAggregate(11).AppendChild(NewTextLiteral("two")))
	root.AppendChild(NewProxy(target))
	root.AppendChild(NewTextLiteral("three"))
	img, err := Encode(&Record{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	var agg Span
	if !RootSpan(img, &agg) || !agg.Children() {
		t.Fatalf("RootSpan: %+v", agg)
	}

	// Two plain children, then the proxy.
	at, passed, proxyEnd := Skip(img, agg.Start, &agg, 5)
	if at < 0 || passed != 2 || proxyEnd != at+ProxySize {
		t.Fatalf("Skip(5) = %d, %d, %d; want the proxy after 2", at, passed, proxyEnd)
	}
	var c Span
	if !ChildSpan(img, at, &agg, &c) || c.Kind != KindProxy || c.Target(img) != target || c.End != proxyEnd {
		t.Fatalf("ChildSpan at the proxy: %+v", c)
	}
	// In front of the second child.
	if at, passed, proxyEnd := Skip(img, agg.Start, &agg, 1); passed != 1 || proxyEnd != 0 ||
		!ChildSpan(img, at, &agg, &c) || c.Kind != KindAggregate || c.Label != 11 {
		t.Fatalf("Skip(1) = %d, %d, %d: %+v", at, passed, proxyEnd, c)
	}
	// Past the proxy to the content's end.
	if at, passed, proxyEnd := Skip(img, c.End+ProxySize, &agg, 5); at != agg.End || passed != 1 || proxyEnd != 0 {
		t.Fatalf("Skip past the proxy = %d, %d, %d; want %d, 1, 0", at, passed, proxyEnd, agg.End)
	}
	// A parent whose content ends inside the proxy.
	short := agg
	short.End = proxyEnd - 1
	if at, _, _ := Skip(img, agg.Start, &short, 5); at != -1 {
		t.Fatalf("Skip over a truncated proxy = %d, want -1", at)
	}
}
