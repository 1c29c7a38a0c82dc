package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// documented are the files, relative to the repository root, whose
// hh commands TestDocumentedFlagsExist checks.
var documented = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md",
	"Makefile", ".github/workflows/ci.yml",
}

// hhCommand finds "hh <subcommand>" at the start of a line or after a
// space, a slash (bin/hh), a backtick or a parenthesis.
var hhCommand = regexp.MustCompile("(?:^|[\\s/`(])hh +([a-z]+)\\b")

// TestDocumentedFlagsExist: every `hh <subcommand> …` command in the
// docs, the Makefile and CI passes only flags that the subcommand
// defines, as its -h lists them. A command runs to the end of its line
// or to the first backtick, pipe, redirection, separator, comment,
// parenthesis or next hh command.
func TestDocumentedFlagsExist(t *testing.T) {
	defined := map[string]map[string]bool{}
	for _, c := range commands {
		usage, _ := capture(t, &os.Stderr, func() int { return c.run([]string{"-h"}) })
		flags := map[string]bool{"h": true, "help": true}
		for _, line := range strings.Split(usage, "\n") {
			if rest, ok := strings.CutPrefix(line, "  -"); ok {
				flags[strings.Fields(rest)[0]] = true
			}
		}
		if len(flags) == 2 {
			t.Fatalf("hh %s -h lists no flags:\n%s", c.name, usage)
		}
		defined[c.name] = flags
	}
	for _, doc := range documented {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(data), "\n") {
			matches := hhCommand.FindAllStringSubmatchIndex(line, -1)
			for i, m := range matches {
				flags, ok := defined[line[m[2]:m[3]]]
				if !ok || strings.HasPrefix(line[m[1]:], "-") {
					continue // not a subcommand, or a word such as "diff-clean"
				}
				end := len(line)
				if i+1 < len(matches) {
					end = matches[i+1][0]
				}
				rest := line[m[1]:end]
				if cut := strings.IndexAny(rest, "`|;&<>#()"); cut >= 0 {
					rest = rest[:cut]
				}
				for _, tok := range strings.Fields(rest) {
					tok = strings.Trim(tok, `[]'",.:`)
					name := strings.TrimLeft(tok, "-")
					if name == tok || name == "" || name[0] >= '0' && name[0] <= '9' {
						continue
					}
					name, _, _ = strings.Cut(name, "=")
					if !flags[name] {
						t.Errorf("%s:%d: hh %s defines no flag -%s: %s",
							doc, n+1, line[m[2]:m[3]], name, strings.TrimSpace(line))
					}
				}
			}
		}
	}
}
