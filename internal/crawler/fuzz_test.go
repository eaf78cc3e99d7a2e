package crawler

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"testing/quick"

	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/identity"
	"tripwire/internal/webgen"
)

// TestQuickRegisterNeverPanicsOnHostileHTML throws random byte soup and
// adversarial markup at the crawler: whatever a site serves, Register must
// return a Result (never panic, never hang) and must not claim exposure
// unless it actually submitted a form.
func TestQuickRegisterNeverPanicsOnHostileHTML(t *testing.T) {
	gen := identity.NewGenerator("bigmail.test", 27)
	cfg := DefaultConfig()
	cfg.RateLimit = 0
	c := New(cfg, captcha.NewService(0.2, 0.2, 28))
	f := func(home, inner string) bool {
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/" {
				fmt.Fprintf(w, "<html><body>%s<a href=\"/p\">Sign Up</a></body></html>", home)
				return
			}
			fmt.Fprintf(w, "<html><body>%s</body></html>", inner)
		})
		b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: h}))
		res := c.Register(b, "http://fuzz.test/", gen.New(identity.Hard))
		switch res.Code {
		case CodeOKSubmission, CodeSubmissionFailed:
			return res.Exposed // submitted → exposed
		case CodeFieldsMissing, CodeNoRegistration:
			return !res.Exposed // never submitted → not exposed
		case CodeSystemError:
			return true
		default:
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAdversarialForms serves structured-but-weird forms and checks
// the exposure invariant holds: exposure if and only if a submission
// happened.
func TestQuickAdversarialForms(t *testing.T) {
	gen := identity.NewGenerator("bigmail.test", 30)
	cfg := DefaultConfig()
	cfg.RateLimit = 0
	c := New(cfg, nil)
	shapes := []string{
		// Registration-shaped.
		`<form method="post" action="/s"><input name="email"><input type="password" name="pw"></form>`,
		// Password but no email.
		`<form method="post" action="/s"><input name="user"><input type="password" name="pw"></form>`,
		// Email but no password.
		`<form method="post" action="/s"><input name="email"></form>`,
		// Unfillable required field.
		`<form method="post" action="/s"><input name="email"><input type="password" name="pw"><input name="blorp_xyz" required></form>`,
		// GET form (search-like).
		`<form method="get" action="/s"><input name="q"></form>`,
		// Nested junk.
		`<form method="post" action="/s"><form><input name="email"><input type="password" name="pw"></form></form>`,
		// No form at all.
		`<p>nothing here</p>`,
	}
	f := func(pick uint8) bool {
		shape := shapes[int(pick)%len(shapes)]
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				fmt.Fprint(w, "<html><body><p>Thank you for registering!</p></body></html>")
				return
			}
			fmt.Fprintf(w, "<html><body><h2>Create your account</h2>%s</body></html>", shape)
		})
		b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: h}))
		res := c.Register(b, "http://adv.test/", gen.New(identity.Easy))
		submitted := res.Code == CodeOKSubmission || res.Code == CodeSubmissionFailed
		return submitted == res.Exposed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzFieldHeuristics feeds arbitrary HTML and attribute soup through the
// full heuristic surface: page parsing, field classification, form scoring,
// link scoring, and success detection. None of it may panic, and
// classification must be a pure function of the markup (the parallel crawl
// engine classifies fields from many goroutines at once, so any hidden
// state would also be a race). The seed corpus is real rendered markup from
// webgen's registration templates.
func FuzzFieldHeuristics(f *testing.F) {
	// Seed with webgen-rendered registration pages: the realistic side of
	// the input space.
	wcfg := webgen.DefaultConfig()
	wcfg.NumSites = 60
	u := webgen.Generate(wcfg)
	seeded := 0
	for _, s := range u.Sites() {
		if !s.Eligible() || seeded >= 6 {
			continue
		}
		b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: u}))
		page, err := b.Get("http://" + s.Domain + s.RegPath)
		if err != nil || !page.OK() {
			continue
		}
		f.Add(page.Raw, "email", "text", "Email address", "you@example.com")
		seeded++
	}
	// Hostile hand-written seeds.
	f.Add(`<form method="post"><input name="pw" type="password"></form>`, "pass word", "PASSWORD", "<b>", `"><script>`)
	f.Add(`<form><select name="state"><option>CA</select></form>`, "state", "select", "", "")
	f.Add("<form", "", "", "", "")

	f.Fuzz(func(t *testing.T, html, name, typ, label, placeholder string) {
		// Attribute soup straight into the classifier.
		fld := browser.Field{Name: name, Type: typ, Label: label, Placeholder: placeholder}
		first := ClassifyField(&fld)
		if again := ClassifyField(&fld); again != first {
			t.Fatalf("ClassifyField not deterministic: %v then %v for %+v", first, again, fld)
		}
		// The same soup embedded in markup, through the real parse path.
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `<html><body>%s<form method="post" action="/s"><input name=%q type=%q placeholder=%q><label>%s</label></form></body></html>`,
				html, name, typ, placeholder, label)
		})
		b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: h}))
		page, err := b.Get("http://fuzz.test/")
		if err != nil {
			return
		}
		for _, form := range page.Forms() {
			for i := range form.Fields {
				m := ClassifyField(&form.Fields[i])
				if m2 := ClassifyField(&form.Fields[i]); m2 != m {
					t.Fatalf("parsed-field classification flapped: %v then %v", m, m2)
				}
			}
			_ = FormScore(form, func() string { return strings.ToLower(page.Raw) })
		}
		for _, l := range page.Links() {
			_ = ScoreRegistrationLink(l)
		}
		_ = LooksLikeSuccess(page.Raw)
	})
}
