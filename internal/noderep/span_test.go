package noderep

import (
	"math"
	"testing"

	"natix/internal/dict"
	"natix/internal/records"
)

// TestSkipStopsAtProxies walks a record's children with Skip and
// ChildSpan, in a narrow and a wide image, and checks where it stops: in
// front of the wanted child, at the proxy whose count holds the wanted
// logical child — and past a proxy whose count lies wholly before it —,
// at the content's end with the logical children counted, and at -1 for
// a proxy that crosses the end of its parent's content.
func TestSkipStopsAtProxies(t *testing.T) {
	target := records.RID{Page: 7, Slot: 3}
	for _, wide := range []bool{false, true} {
		root := NewAggregate(10)
		root.AppendChild(NewTextLiteral("one"))
		root.AppendChild(NewAggregate(11).AppendChild(NewTextLiteral("two")))
		proxy := NewProxy(target)
		proxy.Count = 4
		root.AppendChild(proxy)
		root.AppendChild(NewTextLiteral("three"))
		if wide {
			for i := 0; i <= narrowTypes; i++ {
				root.AppendChild(NewAggregate(dict.LabelID(100 + i)))
			}
		}
		img, err := Encode(&Record{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		if (img[1]&wideFlag != 0) != wide {
			t.Fatalf("wide %v: flags %#x", wide, img[1])
		}
		hdr := 1
		if wide {
			hdr = 2
		}
		var agg Span
		if !RootSpan(img, &agg) || !agg.Children() {
			t.Fatalf("RootSpan: %+v", agg)
		}

		// Two plain children, then the proxy that holds logical children 2
		// to 5.
		for _, idx := range []int{2, 5} {
			at, passed, nodes, proxyEnd := Skip(img, agg.Start, &agg, idx)
			if at < 0 || passed != 2 || nodes != 2 || proxyEnd != at+hdr+ProxyContentSize || ProxyCount(img, proxyEnd) != 4 {
				t.Fatalf("wide %v: Skip(%d) = %d, %d, %d; want the proxy after 2", wide, idx, at, passed, proxyEnd)
			}
			var c Span
			if !ChildSpan(img, at, &agg, &c) || c.Kind != KindProxy || c.Target(img) != target || c.End != proxyEnd {
				t.Fatalf("ChildSpan at the proxy: %+v", c)
			}
		}
		// In front of the second child, and of the text behind the proxy.
		var c Span
		if at, passed, _, proxyEnd := Skip(img, agg.Start, &agg, 1); passed != 1 || proxyEnd != 0 ||
			!ChildSpan(img, at, &agg, &c) || c.Kind != KindAggregate || c.Label != 11 {
			t.Fatalf("Skip(1) = %d, %d, %d: %+v", at, passed, proxyEnd, c)
		}
		if at, passed, nodes, proxyEnd := Skip(img, agg.Start, &agg, 6); passed != 6 || nodes != 3 || proxyEnd != 0 ||
			!ChildSpan(img, at, &agg, &c) || c.Kind != KindLiteral || string(img[c.Start:c.End]) != "three" {
			t.Fatalf("Skip(6) = %d, %d, %d: %+v", at, passed, proxyEnd, c)
		}
		// To the content's end: every logical child counted.
		want, kids := 7, 4
		if wide {
			want, kids = want+narrowTypes+1, kids+narrowTypes+1
		}
		if at, passed, nodes, proxyEnd := Skip(img, agg.Start, &agg, math.MaxInt); at != agg.End || passed != want || nodes != kids || proxyEnd != 0 {
			t.Fatalf("Skip to the end = %d, %d, %d, %d; want %d, %d, %d, 0", at, passed, nodes, proxyEnd, agg.End, want, kids)
		}
		// A parent whose content ends inside the proxy.
		_, _, _, proxyEnd := Skip(img, agg.Start, &agg, 2)
		short := agg
		short.End = proxyEnd - 1
		if at, _, _, _ := Skip(img, agg.Start, &short, 5); at != -1 {
			t.Fatalf("Skip over a truncated proxy = %d, want -1", at)
		}
		if CountOffset(proxyEnd) != proxyEnd-CountSize {
			t.Fatal("CountOffset")
		}
	}
}
