package crawler

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"tripwire/internal/browser"
	"tripwire/internal/captcha"
	"tripwire/internal/identity"
)

// testSite is a hand-rolled registration site for exercising the crawler
// without webgen, so crawler tests stand alone.
type testSite struct {
	mux         *http.ServeMux
	accounts    map[string]string // email -> password
	withCaptcha bool
	issuer      *captcha.Issuer
}

func newTestSite(withCaptcha bool) *testSite {
	ts := &testSite{
		mux:         http.NewServeMux(),
		accounts:    make(map[string]string),
		withCaptcha: withCaptcha,
		issuer:      captcha.NewIssuer("secret"),
	}
	ts.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body>
			<a href="/login">Log in</a>
			<a href="/help">Help</a>
			<a href="/signup">Sign Up</a>
			</body></html>`)
	})
	ts.mux.HandleFunc("/signup", func(w http.ResponseWriter, r *http.Request) {
		cap := ""
		if ts.withCaptcha {
			ch := captcha.Challenge{ID: "c0000000100000002", Kind: captcha.Image}
			cap = fmt.Sprintf(`<input type="hidden" name="captcha_id" value="%s">
				<p><label>Enter the code shown</label><img src="/captcha/%s.png"><input type="text" name="captcha"></p>`, ch.ID, ch.ID)
		}
		fmt.Fprintf(w, `<html><body><h2>Create your account</h2>
			<form action="/signup" method="post">
			<input type="hidden" name="csrf" value="tok123">
			<p><label for="email">Email address</label><input type="text" name="email" id="email" required></p>
			<p><label for="password">Password</label><input type="password" name="password" id="password" required></p>
			<p><label for="password2">Confirm password</label><input type="password" name="password2" id="password2" required></p>
			<p><input type="checkbox" name="tos" value="on" required> <label>I agree to the Terms of Service</label></p>
			%s
			<input type="submit" value="Create account">
			</form></body></html>`, cap)
	})
	ts.mux.HandleFunc("/captcha/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/captcha/"), ".png")
		fmt.Fprint(w, ts.issuer.RenderImage(captcha.Challenge{ID: id, Kind: captcha.Image}))
	})
	ts.mux.HandleFunc("/login", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body><form action="/login" method="post">
			<p><label>Username</label><input type="text" name="login"></p>
			<p><label>Password</label><input type="password" name="password"></p>
			</form></body></html>`)
	})
	return ts
}

func (ts *testSite) register(w http.ResponseWriter, r *http.Request) {
	r.ParseForm()
	if r.PostFormValue("csrf") != "tok123" ||
		r.PostFormValue("email") == "" ||
		r.PostFormValue("password") == "" ||
		r.PostFormValue("password") != r.PostFormValue("password2") ||
		r.PostFormValue("tos") != "on" {
		fmt.Fprint(w, "<html><body><p>Error: please correct the highlighted fields.</p></body></html>")
		return
	}
	if ts.withCaptcha {
		ch := captcha.Challenge{ID: r.PostFormValue("captcha_id"), Kind: captcha.Image}
		if !ts.issuer.Verify(ch, r.PostFormValue("captcha")) {
			fmt.Fprint(w, "<html><body><p>Error: the verification code was incorrect.</p></body></html>")
			return
		}
	}
	ts.accounts[r.PostFormValue("email")] = r.PostFormValue("password")
	fmt.Fprint(w, "<html><body><h2>Thank you for registering! Your account has been created.</h2></body></html>")
}

func (ts *testSite) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", ts.mux)
	// POST /signup routes to register; GET handled above via ts.mux.
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/signup" && r.Method == http.MethodPost {
			ts.register(w, r)
			return
		}
		ts.mux.ServeHTTP(w, r)
	})
	_ = mux
	return wrapped
}

func testIdentity() *identity.Identity {
	return identity.NewGenerator("mail.test", 99).New(identity.Hard)
}

func newCrawler(solver *captcha.Service) *Crawler {
	cfg := DefaultConfig()
	cfg.RateLimit = 0
	return New(cfg, solver)
}

func TestRegisterHappyPath(t *testing.T) {
	ts := newTestSite(false)
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: ts.handler()}))
	id := testIdentity()
	res := newCrawler(nil).Register(b, "http://shop.test/", id)
	if res.Code != CodeOKSubmission {
		t.Fatalf("code = %v (%s)", res.Code, res.Detail)
	}
	if !res.Exposed {
		t.Fatal("successful submission must mark identity exposed")
	}
	if pw, ok := ts.accounts[id.Email]; !ok || pw != id.Password {
		t.Fatalf("account not created correctly: %v", ts.accounts)
	}
	if res.RegURL != "http://shop.test/signup" {
		t.Fatalf("RegURL = %q", res.RegURL)
	}
}

func TestRegisterSolvesImageCaptcha(t *testing.T) {
	ts := newTestSite(true)
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: ts.handler()}))
	solver := captcha.NewService(0, 0, 1) // perfect service
	id := testIdentity()
	res := newCrawler(solver).Register(b, "http://shop.test/", id)
	if res.Code != CodeOKSubmission {
		t.Fatalf("code = %v (%s)", res.Code, res.Detail)
	}
	if _, ok := ts.accounts[id.Email]; !ok {
		t.Fatal("captcha-guarded account not created")
	}
}

func TestRegisterCaptchaSolverError(t *testing.T) {
	ts := newTestSite(true)
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: ts.handler()}))
	solver := captcha.NewService(1.0, 1.0, 1) // always wrong
	res := newCrawler(solver).Register(b, "http://shop.test/", testIdentity())
	if res.Code != CodeSubmissionFailed {
		t.Fatalf("code = %v, want submission-failed on wrong captcha", res.Code)
	}
	if !res.Exposed {
		t.Fatal("identity was submitted; must be exposed")
	}
	if len(ts.accounts) != 0 {
		t.Fatal("account created despite wrong captcha")
	}
}

func TestRegisterNoCaptchaService(t *testing.T) {
	ts := newTestSite(true)
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: ts.handler()}))
	res := newCrawler(nil).Register(b, "http://shop.test/", testIdentity())
	if res.Code != CodeFieldsMissing {
		t.Fatalf("code = %v, want fields-missing without a solver", res.Code)
	}
	if res.Exposed {
		t.Fatal("identity exposed without submission")
	}
}

func TestRegisterNoRegistrationSite(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body><p>News only.</p><a href="/about">About</a></body></html>`)
	})
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: h}))
	res := newCrawler(nil).Register(b, "http://news.test/", testIdentity())
	if res.Code != CodeNoRegistration {
		t.Fatalf("code = %v", res.Code)
	}
}

func TestRegisterLoadFailure(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: h}))
	res := newCrawler(nil).Register(b, "http://down.test/", testIdentity())
	if res.Code != CodeSystemError {
		t.Fatalf("code = %v", res.Code)
	}
}

func TestRegisterAvoidsLoginForm(t *testing.T) {
	// Home page carries a login form (password but no email, 2 fields) and
	// no registration; the crawler must not submit credentials to it.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body>
			<form action="/login" method="post">
			<p><label>Username</label><input type="text" name="user"></p>
			<p><label>Password</label><input type="password" name="pass"></p>
			</form>
			<a href="/contact">Contact</a></body></html>`)
	})
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: h}))
	res := newCrawler(nil).Register(b, "http://portal.test/", testIdentity())
	if res.Code != CodeNoRegistration {
		t.Fatalf("code = %v; crawler mistook a login form for registration", res.Code)
	}
	if res.Exposed {
		t.Fatal("credentials leaked to a login form")
	}
}

// TestBestFormIgnoresDecoys scores a page holding a login form and a
// registration form with and without webgen-style password-less decoys (a
// search box and a newsletter signup) around them: the decoys add page
// text but no candidate, so the same registration form wins either way,
// and a page of decoys alone has no registration form.
func TestBestFormIgnoresDecoys(t *testing.T) {
	const (
		search     = `<form action="/search" method="get"><input type="text" name="q"><input type="submit" value="Search"></form>`
		newsletter = `<div id="sidebar"><form action="/newsletter" method="post"><input type="text" name="nl_email" placeholder="you@example.com"><input type="submit" value="OK"></form></div>`
		login      = `<form action="/login" method="post"><p><label>Username</label><input type="text" name="user"></p><p><label>Password</label><input type="password" name="pass"></p></form>`
		register   = `<h2>Create your account</h2><form action="/register" method="post">
			<p><label for="em">Email</label><input type="text" name="em" id="em"></p>
			<p><label for="pw">Password</label><input type="password" name="pw" id="pw"></p>
			<p><label for="pw2">Confirm password</label><input type="password" name="pw2" id="pw2"></p>
			<input type="submit" value="Sign up"></form>`
	)
	u, err := url.Parse("http://decoys.test/join")
	if err != nil {
		t.Fatal(err)
	}
	pick := func(body string) *browser.Form {
		return bestForm(&browser.Page{URL: u, StatusCode: 200, Raw: "<html><body>" + body + "</body></html>"})
	}
	plain := pick(login + register)
	decoyed := pick(search + login + register + newsletter)
	if plain == nil || decoyed == nil {
		t.Fatalf("no registration form found: plain=%v decoyed=%v", plain, decoyed)
	}
	if plain.Action.String() != "http://decoys.test/register" || decoyed.Action.String() != plain.Action.String() {
		t.Fatalf("picked %s without decoys and %s with them, want /register both times", plain.Action, decoyed.Action)
	}
	if f := pick(search + newsletter); f != nil {
		t.Fatalf("decoy-only page yielded a registration form: %s", f.Action)
	}
}

func TestFaultInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FaultRate = 1.0
	c := New(cfg, nil)
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: newTestSite(false).handler()}))
	res := c.Register(b, "http://shop.test/", testIdentity())
	if res.Code != CodeSystemError || res.Exposed {
		t.Fatalf("fault injection: %+v", res)
	}
}

func TestRateLimitSleeps(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg, nil)
	var slept int
	c.Sleep = func(time.Duration) { slept++ }
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: newTestSite(false).handler()}))
	c.Register(b, "http://shop.test/", testIdentity())
	if slept < 2 {
		t.Fatalf("rate limiter invoked %d times, want one per page load", slept)
	}
}

func TestClassifyFieldByType(t *testing.T) {
	cases := []struct {
		html string
		want Meaning
	}{
		{`<form><input type="password" name="x1"></form>`, MeaningPassword},
		{`<form><input type="password" name="confirm_password"></form>`, MeaningConfirmPassword},
		{`<form><input type="email" name="whatever"></form>`, MeaningEmail},
		{`<form><input type="hidden" name="csrf" value="x"></form>`, MeaningHidden},
		{`<form><input type="text" name="user_email"></form>`, MeaningEmail},
		{`<form><input type="text" name="username"></form>`, MeaningUsername},
		{`<form><input type="text" name="first_name"></form>`, MeaningFirstName},
		{`<form><input type="text" name="zip_code"></form>`, MeaningZip},
		{`<form><input type="text" name="phone_number"></form>`, MeaningPhone},
		{`<form><input type="text" name="birth_date"></form>`, MeaningDOB},
		{`<form><input type="checkbox" name="accept_terms"></form>`, MeaningTOS},
		{`<form><input type="checkbox" name="newsletter"></form>`, MeaningNewsletter},
		{`<form><input type="text" name="security_code"></form>`, MeaningCaptcha},
		{`<form><input type="text" name="card_number"></form>`, MeaningCreditCard},
		{`<form><input type="text" name="fld_93"></form>`, MeaningUnknown},
		{`<form><p><label for="f2">Email address</label><input type="text" name="f2" id="f2"></p></form>`, MeaningEmail},
	}
	for _, tc := range cases {
		page := parsePage(t, tc.html)
		f := page.Forms()[0].Fields[0]
		if got := ClassifyField(&f); got != tc.want {
			t.Errorf("ClassifyField(%s) = %v, want %v", tc.html, got, tc.want)
		}
	}
}

func parsePage(t *testing.T, html string) *browser.Page {
	t.Helper()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html><body>"+html+"</body></html>")
	})
	b := browser.New(browser.WithTransport(&browser.HandlerTransport{Handler: h}))
	p, err := b.Get("http://t.test/")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestScoreRegistrationLink(t *testing.T) {
	mk := func(text, path string) browser.Link {
		u, _ := url.Parse("http://x.test" + path)
		return browser.Link{URL: u, Text: text}
	}
	if s := ScoreRegistrationLink(mk("Sign Up", "/signup")); s < 3 {
		t.Errorf("signup link scored %v", s)
	}
	if s := ScoreRegistrationLink(mk("Log in", "/login")); s > 0 {
		t.Errorf("login link scored %v, want negative or zero", s)
	}
	if s := ScoreRegistrationLink(mk("Privacy Policy", "/privacy")); s > 0 {
		t.Errorf("privacy link scored %v", s)
	}
	if s := ScoreRegistrationLink(mk("", "/register")); s < 1.5 {
		t.Errorf("image-text registration href scored %v", s)
	}
}

func TestLooksLikeSuccess(t *testing.T) {
	if !LooksLikeSuccess("Thank you for registering! Your account has been created.") {
		t.Error("clear success rejected")
	}
	if !LooksLikeSuccess("Welcome! Please verify your email to continue.") {
		t.Error("verification prompt rejected")
	}
	if LooksLikeSuccess("Error: please correct the highlighted fields and try again.") {
		t.Error("failure page accepted")
	}
	if LooksLikeSuccess("Your request has been received and is being processed.") {
		t.Error("vague response accepted (paper's bad-heuristics source)")
	}
	if LooksLikeSuccess("Thank you! Error: username is already taken.") {
		t.Error("mixed page with dominant failure accepted")
	}
}

func TestCodeStrings(t *testing.T) {
	want := map[Code]string{
		CodeOKSubmission:     "OK submission",
		CodeSubmissionFailed: "Submission heuristics failed",
		CodeFieldsMissing:    "Required fields missing",
		CodeNoRegistration:   "No registration found",
		CodeSystemError:      "System Error",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Code(%d).String() = %q, want %q", int(c), c.String(), s)
		}
	}
}
