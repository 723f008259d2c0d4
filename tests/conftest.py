"""Shared fixtures: a corpus of small programs exercised by many tests.

``CORPUS`` maps a name to mini-language source whose ``main`` takes no
arguments and returns a deterministic checksum.  Tests run these
uninstrumented and under every profiling configuration and compare
counts against the tracing oracle and the DCT projection.
"""

from __future__ import annotations

import pytest

from repro.lang import compile_source

CORPUS = {
    "straightline": """
        fn main() { var a = 3; var b = 4; return a * b + 5; }
    """,
    "diamond": """
        fn main() {
            var x = 7; var r = 0;
            if (x % 2 == 1) { r = x * 3; } else { r = x * 5; }
            return r;
        }
    """,
    "loop": """
        fn main() {
            var i = 0; var sum = 0;
            while (i < 37) { sum = sum + i; i = i + 1; }
            return sum;
        }
    """,
    "nested_loops": """
        fn main() {
            var i = 0; var sum = 0;
            while (i < 9) {
                var j = 0;
                while (j < 7) {
                    if ((i + j) % 3 == 0) { sum = sum + 2; } else { sum = sum + 1; }
                    j = j + 1;
                }
                i = i + 1;
            }
            return sum;
        }
    """,
    "break_continue": """
        fn main() {
            var i = 0; var sum = 0;
            while (i < 100) {
                i = i + 1;
                if (i % 4 == 0) { continue; }
                if (i > 50) { break; }
                sum = sum + i;
            }
            return sum;
        }
    """,
    "calls": """
        fn double(x) { return x * 2; }
        fn addsq(a, b) { return double(a) + b * b; }
        fn main() {
            var i = 0; var sum = 0;
            while (i < 12) { sum = sum + addsq(i, i + 1); i = i + 1; }
            return sum;
        }
    """,
    "fib": """
        fn fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fn main() { return fib(11); }
    """,
    "mutual_recursion": """
        fn even(n) { if (n == 0) { return 1; } return odd(n - 1); }
        fn odd(n) { if (n == 0) { return 0; } return even(n - 1); }
        fn main() {
            var i = 0; var count = 0;
            while (i < 25) { count = count + even(i); i = i + 1; }
            return count;
        }
    """,
    "arrays": """
        global data[512];
        fn main() {
            var i = 0;
            while (i < 512) { data[i] = i * 7 % 97; i = i + 1; }
            var sum = 0;
            i = 0;
            while (i < 512) {
                if (data[i] > 48) { sum = sum + data[i]; }
                i = i + 1;
            }
            return sum;
        }
    """,
    "hash_table": """
        global table[256];
        fn probe(key) {
            var h = (key * 31) & 255;
            if (table[h] == 0) { table[h] = key; return 0; }
            if (table[h] == key) { return 1; }
            table[(h + 1) & 255] = key;
            return 2;
        }
        fn main() {
            var i = 0; var sum = 0;
            while (i < 300) { sum = sum + probe(i % 90 + 1); i = i + 1; }
            return sum;
        }
    """,
    "logic": """
        fn check(a, b) {
            if (a > 2 && b < 10 || a == 0) { return 1; }
            return 0;
        }
        fn main() {
            var i = 0; var n = 0;
            while (i < 20) { n = n + check(i % 5, i); i = i + 1; }
            return n;
        }
    """,
    "deep_calls": """
        fn l4(x) { return x + 1; }
        fn l3(x) { if (x % 2 == 0) { return l4(x) * 2; } return l4(x + 1); }
        fn l2(x) { return l3(x) + l3(x + 1); }
        fn l1(x) { return l2(x) + 1; }
        fn main() {
            var i = 0; var sum = 0;
            while (i < 15) { sum = sum + l1(i); i = i + 1; }
            return sum;
        }
    """,
    "many_paths": """
        fn classify(v) {
            var r = 0;
            if (v & 1) { r = r + 1; } else { r = r + 10; }
            if (v & 2) { r = r + 100; } else { r = r + 1000; }
            if (v & 4) { r = r * 2; } else { r = r * 3; }
            if (v & 8) { r = r - 5; } else { r = r + 5; }
            return r;
        }
        fn main() {
            var i = 0; var sum = 0;
            while (i < 64) { sum = sum + classify(i * 13 % 16); i = i + 1; }
            return sum;
        }
    """,
    "float_mix": """
        fn main() {
            var i = 0;
            var sum = 0;
            while (i < 30) {
                var x = fadd(1.5, fmul(0.25, i));
                if (i % 3 == 0) { x = fdiv(x, 2.0); }
                sum = sum + i;
                i = i + 1;
            }
            return sum;
        }
    """,
}


@pytest.fixture(scope="session", autouse=True)
def hermetic_code_cache(tmp_path_factory):
    """Point the trace tier's disk code cache at a per-session temp dir.

    Keeps test runs from reading or writing the user's cache; tests that
    set ``REPRO_CODE_CACHE`` themselves (through ``monkeypatch``) still
    override it and get this value back afterwards.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CODE_CACHE", str(tmp_path_factory.mktemp("codecache")))
        yield


@pytest.fixture(scope="session")
def corpus_programs():
    """name -> freshly compiled Program factory (compile once per test use)."""
    return {name: source for name, source in CORPUS.items()}


def compile_corpus(name: str):
    return compile_source(CORPUS[name])


def pytest_generate_tests(metafunc):
    if "corpus_name" in metafunc.fixturenames:
        metafunc.parametrize("corpus_name", sorted(CORPUS))
