package browser

import (
	"fmt"
	"net/http"
	"net/netip"
	"strings"
	"testing"

	"tripwire/internal/htmldom"
)

// testHandler serves a small site for browser tests.
func testHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.SetCookie(w, &http.Cookie{Name: "session", Value: "abc123", Path: "/"})
		fmt.Fprint(w, `<html><head><title>Test Site</title></head><body>
			<a href="/about">About</a>
			<a href="relative/page">Rel</a>
			<a href="javascript:void(0)">JS</a>
			<a href="#frag">Frag</a>
			<a href="http://other.test/x">Other</a>
			</body></html>`)
	})
	mux.HandleFunc("/about", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html><body><p>about page</p></body></html>")
	})
	mux.HandleFunc("/redir", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/about", http.StatusFound)
	})
	mux.HandleFunc("/whoami", func(w http.ResponseWriter, r *http.Request) {
		c, err := r.Cookie("session")
		if err != nil {
			fmt.Fprint(w, "<p>no cookie</p>")
			return
		}
		fmt.Fprintf(w, "<p>cookie=%s</p>", c.Value)
	})
	mux.HandleFunc("/form", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body><form action="/submit" method="post">
			<input type="hidden" name="csrf" value="tok">
			<p><label for="em">Email</label><input type="text" name="em" id="em" required></p>
			<p><label>Password</label><input type="password" name="pw"></p>
			<p><input type="checkbox" name="tos" value="on"> <label>Agree</label></p>
			<select name="state"><option value="">--</option><option value="CA">CA</option></select>
			<input type="submit" value="Go">
			</form></body></html>`)
	})
	mux.HandleFunc("/submit", func(w http.ResponseWriter, r *http.Request) {
		r.ParseForm()
		fmt.Fprintf(w, "<p>csrf=%s em=%s pw=%s tos=%s state=%s</p>",
			r.PostFormValue("csrf"), r.PostFormValue("em"), r.PostFormValue("pw"),
			r.PostFormValue("tos"), r.PostFormValue("state"))
	})
	return mux
}

func testClient() *Client {
	return New(WithTransport(&HandlerTransport{Handler: testHandler()}))
}

func TestGetAndTitle(t *testing.T) {
	p, err := testClient().Get("http://site.test/")
	if err != nil {
		t.Fatal(err)
	}
	title := p.DOM().First(func(n *htmldom.Node) bool { return n.Tag == "title" })
	if !p.OK() || title == nil || title.Text() != "Test Site" {
		t.Fatalf("status=%d title=%v", p.StatusCode, title)
	}
}

func TestDOMParsedOnceAndKept(t *testing.T) {
	p, err := testClient().Get("http://site.test/")
	if err != nil {
		t.Fatal(err)
	}
	root := p.DOM()
	if root == nil || p.DOM() != root {
		t.Fatal("DOM() did not return the same root on a repeated call")
	}
	if len(p.Links()) == 0 || p.DOM() != root {
		t.Fatal("Links() replaced the parsed tree")
	}
}

// TestFetchWithoutDOMDoesNotParse pins the lazy parse with a budget in the
// style of htmldom's alloc tests: fetching a page of 200 list items whose
// DOM is never read costs only the round trip's allocations. The budget is
// the measured count (18, or 20 under -race, where sync.Pool drops items)
// plus slack; parsing the page adds hundreds.
func TestFetchWithoutDOMDoesNotParse(t *testing.T) {
	const budget = 24
	page := "<html><body><ul>" + strings.Repeat(`<li class="m"><a href="/u">user</a></li>`, 200) + "</ul></body></html>"
	c := New(WithTransport(&HandlerTransport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(page)))
		fmt.Fprint(w, page)
	})}))
	fetch := testing.AllocsPerRun(50, func() { c.Get("http://site.test/big") })
	parse := testing.AllocsPerRun(50, func() {
		p, _ := c.Get("http://site.test/big")
		p.DOM()
	})
	if fetch > budget {
		t.Errorf("Get without DOM() = %.1f allocs/op, budget %d", fetch, budget)
	}
	if parse <= 2*budget {
		t.Errorf("Get then DOM() = %.1f allocs/op: the page is too small to tell a parse from none", parse)
	}
}

func TestLinksResolvedAndFiltered(t *testing.T) {
	c := testClient()
	p, _ := c.Get("http://site.test/")
	links := p.Links()
	if len(links) != 3 {
		t.Fatalf("got %d links %v, want 3 (javascript: and #frag filtered)", len(links), links)
	}
	if links[0].URL.String() != "http://site.test/about" || links[0].Text != "About" {
		t.Fatalf("link[0] = %v %q", links[0].URL, links[0].Text)
	}
	if links[1].URL.String() != "http://site.test/relative/page" {
		t.Fatalf("relative resolution broken: %v", links[1].URL)
	}
	if links[2].URL.Host != "other.test" {
		t.Fatalf("absolute link broken: %v", links[2].URL)
	}
}

func TestRedirectFollowed(t *testing.T) {
	c := testClient()
	p, err := c.Get("http://site.test/redir")
	if err != nil {
		t.Fatal(err)
	}
	if p.URL.Path != "/about" || !strings.Contains(p.Raw, "about page") {
		t.Fatalf("redirect not followed: %v", p.URL)
	}
}

func TestCookiesPersistAcrossRequests(t *testing.T) {
	c := testClient()
	if _, err := c.Get("http://site.test/"); err != nil {
		t.Fatal(err)
	}
	p, err := c.Get("http://site.test/whoami")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Raw, "cookie=abc123") {
		t.Fatalf("cookie not sent: %s", p.Raw)
	}
	// A fresh session has its own jar.
	p2, _ := testClient().Get("http://site.test/whoami")
	if !strings.Contains(p2.Raw, "no cookie") {
		t.Fatal("cookie leaked across sessions")
	}
}

func TestFormExtraction(t *testing.T) {
	c := testClient()
	p, _ := c.Get("http://site.test/form")
	forms := p.Forms()
	if len(forms) != 1 {
		t.Fatalf("got %d forms", len(forms))
	}
	f := forms[0]
	if f.Method != "POST" || f.Action.Path != "/submit" {
		t.Fatalf("form meta: %s %v", f.Method, f.Action)
	}
	byName := map[string]Field{}
	for _, fld := range f.Fields {
		byName[fld.Name] = fld
	}
	if byName["csrf"].Type != "hidden" || byName["csrf"].Value != "tok" {
		t.Fatalf("hidden field: %+v", byName["csrf"])
	}
	if byName["em"].Label != "Email" || !byName["em"].Required {
		t.Fatalf("label-for association failed: %+v", byName["em"])
	}
	if byName["pw"].Type != "password" || byName["pw"].Label != "Password" {
		t.Fatalf("sibling label failed: %+v", byName["pw"])
	}
	if len(byName["state"].Options) != 2 {
		t.Fatalf("select options: %+v", byName["state"])
	}
}

func TestFieldContext(t *testing.T) {
	c := testClient()
	p, _ := c.Get("http://site.test/form")
	f := p.Forms()[0]
	for _, fld := range f.Fields {
		if fld.Name == "em" {
			ctx := fld.Context()
			if !strings.Contains(ctx, "email") || !strings.Contains(ctx, "em") {
				t.Fatalf("Context() = %q", ctx)
			}
		}
	}
}

func TestSubmissionDefaultsAndOverrides(t *testing.T) {
	c := testClient()
	p, _ := c.Get("http://site.test/form")
	f := p.Forms()[0]
	sub := f.Fill().
		Set("em", "a@b.test").
		Set("pw", "secret").
		Check("tos").
		SelectLast("state")
	resp, err := c.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	want := "csrf=tok em=a@b.test pw=secret tos=on state=CA"
	if !strings.Contains(resp.Raw, want) {
		t.Fatalf("submitted values wrong:\n got %s\nwant %s", resp.Raw, want)
	}
}

func TestUncheckedCheckboxOmitted(t *testing.T) {
	c := testClient()
	p, _ := c.Get("http://site.test/form")
	sub := p.Forms()[0].Fill().Set("em", "x").Set("pw", "y")
	resp, _ := c.Submit(sub)
	if !strings.Contains(resp.Raw, "tos= ") {
		t.Fatalf("unchecked checkbox submitted a value: %s", resp.Raw)
	}
}

func TestProxyTransportStampsAndPins(t *testing.T) {
	var seen []string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, r.Header.Get("X-Forwarded-For"))
		fmt.Fprint(w, "<p>ok</p>")
	})
	calls := 0
	pt := &ProxyTransport{
		Base: &HandlerTransport{Handler: h},
		NextIP: func(host string) netip.Addr {
			calls++
			return netip.AddrFrom4([4]byte{10, 0, 0, byte(calls)})
		},
	}
	c := New(WithTransport(pt))
	c.Get("http://a.test/")
	c.Get("http://a.test/page2")
	c.Get("http://b.test/")
	if calls != 2 {
		t.Fatalf("NextIP called %d times, want 2 (one per host)", calls)
	}
	if seen[0] != seen[1] {
		t.Fatalf("same host saw different exits: %v", seen)
	}
	if seen[2] == seen[0] {
		t.Fatalf("different hosts shared an exit: %v", seen)
	}
	if ip, ok := pt.ExitIP("a.test"); !ok || ip.String() != seen[0] {
		t.Fatalf("ExitIP mismatch: %v %v", ip, ok)
	}
}

func TestHandlerTransportStatusAndBody(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, "<p>nope</p>")
			return
		}
		fmt.Fprint(w, "<p>hi</p>")
	})
	c := New(WithTransport(&HandlerTransport{Handler: h}))
	p, err := c.Get("http://x.test/missing")
	if err != nil {
		t.Fatal(err)
	}
	if p.StatusCode != 404 || !strings.Contains(p.Raw, "nope") {
		t.Fatalf("status=%d body=%q", p.StatusCode, p.Raw)
	}
}

func TestMaxBodyBytes(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, strings.Repeat("x", 1000))
	})
	c := New(WithTransport(&HandlerTransport{Handler: h}))
	c.MaxBodyBytes = 100
	p, err := c.Get("http://x.test/")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Raw) != 100 {
		t.Fatalf("body length %d, want capped at 100", len(p.Raw))
	}
}
