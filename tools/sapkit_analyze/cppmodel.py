#!/usr/bin/env python3
"""Lexical C++ model extraction for sapkit-analyze.

This is not a compiler. It is a brace/scope-aware scanner tuned to the
sapkit house style (docs/STATIC_ANALYSIS.md): it tokenizes each file with
comments and string literals stripped, then walks the token stream once,
tracking namespace / class / function / block scopes, and extracts the
facts the semantic passes need:

  * function definitions (qualified name, parameter types, body range),
  * class/struct member declarations (name -> base type),
  * local variable declarations (including loop-header declarations),
  * loop statements with their body token ranges and nesting,
  * call sites with receiver chains and argument token ranges,
  * mutex acquisitions (lock_guard / unique_lock / scoped_lock and their
    enclosing-block hold ranges, truncated by .unlock()),
  * heap-allocation expressions (new / make_unique / growing containers),
  * direct deadline checks (Deadline/DeadlineGate .check()/.expired()).

Heuristics err on the side of producing a usable model for idiomatic
code; the fixture tree under fixtures/semantic pins the behaviour for the
constructs that matter (lambdas, overload sets, templates, function
pointers, macro-heavy lines), and justified allow-comments absorb the
residue on real code.
"""

from __future__ import annotations

import dataclasses
import re

# ---------------------------------------------------------------------------
# Tokenizer: shared by the lexical rules and the model extraction.
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""
    [A-Za-z_][A-Za-z0-9_]*
  | 0[xX][0-9a-fA-F']+ | [0-9][0-9a-fA-F'.eEpPxXuUlL+-]*
  | ->\*? | \+\+ | -- | <<=? | >>=? | <=> | [-+*/%&|^!<>=]= | && | \|\| | ::
  | [-+*/%&|^!<>=~?:;,.(){}\[\]]
    """,
    re.VERBOSE,
)


_HEX_DIGITS = set("0123456789abcdefABCDEF")


def strip_comments_and_strings(text: str) -> list[str]:
    """Per-line code with comments and string/char literals blanked.

    Line numbering is preserved, escapes are honoured, and comment text
    never reaches the token stream, so prose and allow comments never
    trigger a rule.
    """
    out: list[list[str]] = [[]]
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        if c == "\n":
            if state == "line_comment":
                state = "code"
            out.append([])
            i += 1
            continue
        if state == "code":
            nxt = text[i + 1] if i + 1 < n else ""
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                out[-1].append(" ")
                i += 1
                continue
            if c == "'":
                # C++14 digit separator (1'000'000, 0xFF'FF): a quote
                # between two hex digits stays part of the number and
                # must not open a char literal, or the rest of the file
                # would be blanked.
                prev = out[-1][-1] if out[-1] else ""
                if prev in _HEX_DIGITS and nxt in _HEX_DIGITS:
                    out[-1].append(c)
                    i += 1
                    continue
                state = "char"
                out[-1].append(" ")
                i += 1
                continue
            out[-1].append(c)
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state = "code"
                i += 2
                continue
            i += 1
            continue
        if state in ("string", "char"):
            if c == "\\":
                i += 2
                continue
            if (state == "string" and c == '"') or \
                    (state == "char" and c == "'"):
                state = "code"
            i += 1
            continue
        i += 1
    return ["".join(chars) for chars in out]


@dataclasses.dataclass(frozen=True)
class Tok:
    text: str
    line: int


def tokenize_file(text: str) -> list[Tok]:
    toks: list[Tok] = []
    continuation = False
    for lineno, code in enumerate(strip_comments_and_strings(text), start=1):
        stripped = code.lstrip()
        if continuation or stripped.startswith("#"):
            # Preprocessor directives (and their backslash continuations)
            # are not C++ token streams; keep them out of the model.
            continuation = code.rstrip().endswith("\\")
            continue
        for t in TOKEN_RE.findall(code):
            toks.append(Tok(t, lineno))
    return toks


# ---------------------------------------------------------------------------
# Extracted facts
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Param:
    name: str
    type_tokens: tuple[str, ...]


@dataclasses.dataclass
class Loop:
    line: int                 # line of the for/while/do keyword
    body: tuple[int, int]     # token index range [lo, hi) of the body
    depth: int                # syntactic nesting inside the function (1 = outermost)
    keyword: str


@dataclasses.dataclass
class Call:
    name: str                 # bare callee name
    line: int
    index: int                # token index of the callee name
    args: tuple[int, int]     # token index range of the argument list ( ... )
    receiver_base: str | None   # first identifier of the postfix chain
    receiver_member: str | None  # identifier directly before the final . / ->
    is_method: bool
    qualifier: str | None = None  # 'X' for X::f(...), '' for ::f(...)


@dataclasses.dataclass
class Alloc:
    line: int
    index: int
    kind: str       # 'new' | 'make_unique' | 'make_shared' | 'grow' | 'sized-decl'
    owner: str      # receiver/declared name ('' for bare new)
    detail: str
    base: str = ""  # receiver-chain base (e.g. 'ctx' for ctx.next.resize)


@dataclasses.dataclass
class LockSite:
    line: int
    index: int
    hold_end: int             # token index where the hold provably ends
    mutex_keys: tuple[str, ...]
    lock_var: str             # the guard variable name ('' if unnamed)
    kind: str                 # lock_guard | unique_lock | scoped_lock | manual


@dataclasses.dataclass
class FunctionDef:
    name: str
    qualname: str
    cls: str | None
    path: str
    line: int
    params: list[Param]
    body: tuple[int, int]     # token index range [lo, hi) inside the braces
    locals: dict[str, str]    # name -> base type ('' when unknown/auto)
    local_init: dict[str, str]  # name -> flattened initializer text
    loops: list[Loop]
    calls: list[Call]
    allocs: list[Alloc]
    locks: list[LockSite]
    check_indices: list[int]  # token indices of direct deadline checks
    dotted_assigns: set[str]  # "var.member" targets assigned in the body
    has_thread_arena: bool = False


@dataclasses.dataclass
class FileModel:
    path: str
    toks: list[Tok]
    functions: list[FunctionDef]
    members: dict[str, dict[str, str]]  # class -> member name -> base type


# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "new",
    "delete", "do", "else", "case", "default", "break", "continue", "goto",
    "static_assert", "alignof", "decltype", "throw", "try", "using",
    "typedef", "template", "typename", "operator", "co_return", "co_await",
    "co_yield", "noexcept", "static_cast", "const_cast", "dynamic_cast",
    "reinterpret_cast", "requires", "friend", "explicit", "public",
    "private", "protected", "assert",
}

_DECL_QUALIFIERS = {
    "const", "constexpr", "static", "mutable", "volatile", "inline",
    "thread_local", "register", "typename", "unsigned", "signed",
}

_TYPE_STARTERS = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_LOCK_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}

_GROW_METHODS = {
    "push_back", "emplace_back", "resize", "reserve", "assign", "insert",
    "emplace", "append", "push_front", "emplace_front",
}

_STD_CONTAINERS = {
    "vector", "string", "deque", "list", "forward_list", "map", "multimap",
    "set", "multiset", "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset", "basic_string",
}

NODE_CONTAINERS = {
    "map", "multimap", "set", "multiset", "list", "forward_list",
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}

STD_CONTAINERS = _STD_CONTAINERS
GROW_METHODS = _GROW_METHODS

ARENA_TYPES = {"Arena", "ArenaScope", "FlatBuf", "FlatMat", "BufView",
               "MatView"}

DEADLINE_TYPES = {"Deadline", "DeadlineGate"}

_DEADLINE_NAME_RE = re.compile(r"(?:^|_)(?:deadline|gate)s?(?:_|$)",
                               re.IGNORECASE)


def base_type_of(type_tokens: tuple[str, ...] | list[str]) -> str:
    """The identifying type name: last identifier of the first qualified
    chain, before any template argument list. `const std::vector<Task>&`
    -> 'vector'; `FlatBuf<double>` -> 'FlatBuf'; `Value*` -> 'Value'."""
    ids: list[str] = []
    depth = 0
    for t in type_tokens:
        if t == "<":
            depth += 1
            continue
        if t == ">":
            depth = max(0, depth - 1)
            continue
        if depth:
            continue
        if t in _DECL_QUALIFIERS:
            continue
        if _TYPE_STARTERS.match(t) and t not in ("std",):
            ids.append(t)
        elif t in ("*", "&", "&&"):
            break
    return ids[-1] if ids else ""


def _match_forward(toks: list[Tok], i: int, open_t: str, close_t: str) -> int:
    """Index just past the matching close token; i points at the open."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _match_back(toks: list[Tok], i: int, open_t: str, close_t: str) -> int:
    """Index of the matching open token; i points at the close."""
    depth = 0
    while i >= 0:
        t = toks[i].text
        if t == close_t:
            depth += 1
        elif t == open_t:
            depth -= 1
            if depth == 0:
                return i
        i -= 1
    return 0


def receiver_chain(toks: list[Tok], name_idx: int) -> tuple[str | None,
                                                            str | None, bool]:
    """(base identifier, member directly before the call, is_method) for the
    postfix chain ending at the callee name at `name_idx`."""
    i = name_idx - 1
    if i < 0 or toks[i].text not in (".", "->"):
        return None, None, False
    member: str | None = None
    base: str | None = None
    first = True
    while i >= 0:
        t = toks[i].text
        if t in (".", "->"):
            i -= 1
            continue
        if t in ("]", ")"):
            i = _match_back(toks, i, "[" if t == "]" else "(", t) - 1
            first = False
            continue
        if _TYPE_STARTERS.match(t):
            if first:
                member = t
                first = False
            base = t
            # keep walking only if the previous token continues the chain
            if i >= 1 and toks[i - 1].text in (".", "->"):
                i -= 1
                continue
            break
        break
    return base, member, True


class _Scope:
    __slots__ = ("kind", "name", "brace_index")

    def __init__(self, kind: str, name: str, brace_index: int):
        self.kind = kind        # namespace | class | function | block | skip
        self.name = name
        self.brace_index = brace_index


def parse_file(path: str, rel_path: str, text: str | None = None,
               members: dict[str, dict[str, str]] | None = None) -> FileModel:
    """Parses one file.  When `members` is given, class-member declarations
    are recorded into (and resolved against) that shared table, so a
    program-level driver can run a first pass to collect members across
    every translation unit and a second pass to extract bodies with the
    complete table."""
    if text is None:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    toks = tokenize_file(text)
    model = FileModel(rel_path, toks, [],
                      members if members is not None else {})
    n = len(toks)
    scopes: list[_Scope] = []
    i = 0

    def innermost_class() -> str | None:
        for s in reversed(scopes):
            if s.kind == "class":
                return s.name
        return None

    def in_function() -> bool:
        return any(s.kind == "function" for s in scopes)

    while i < n:
        t = toks[i].text
        if t == "}":
            if scopes:
                scopes.pop()
            i += 1
            continue
        if t == "{":
            # Unclassified brace (initializer list, array init, ...): track
            # it as a plain block so nesting stays balanced.
            scopes.append(_Scope("block", "", i))
            i += 1
            continue
        if t == "namespace" and not in_function():
            j = i + 1
            name_parts = []
            while j < n and toks[j].text not in ("{", ";", "="):
                if _TYPE_STARTERS.match(toks[j].text):
                    name_parts.append(toks[j].text)
                j += 1
            if j < n and toks[j].text == "{":
                scopes.append(_Scope("namespace", "::".join(name_parts), j))
                i = j + 1
                continue
            i = j + 1
            continue
        if t in ("class", "struct", "union") and not in_function():
            # Distinguish a definition ("... {") from a forward declaration
            # or an elaborated type ("struct Foo x;").
            j = i + 1
            name = ""
            while j < n and toks[j].text not in ("{", ";", "(", ")", ","):
                if _TYPE_STARTERS.match(toks[j].text) and toks[j].text not in (
                        "final", "public", "private", "protected", "virtual"):
                    if not name:
                        name = toks[j].text
                if toks[j].text == ":":  # base clause; name already taken
                    pass
                j += 1
            if j < n and toks[j].text == "{" and name:
                scopes.append(_Scope("class", name, j))
                model.members.setdefault(name, {})
                i = j + 1
                continue
            i += 1
            continue
        if t == "enum" and not in_function():
            j = i + 1
            while j < n and toks[j].text not in ("{", ";"):
                j += 1
            if j < n and toks[j].text == "{":
                i = _match_forward(toks, j, "{", "}")
                continue
            i = j + 1
            continue

        if not in_function():
            # Function definition?
            fn = _try_parse_function(toks, i, rel_path, scopes)
            if fn is not None:
                func, body_open = fn
                _scan_body(toks, func, body_open, model)
                model.functions.append(func)
                i = func.body[1] + 1  # past the closing brace
                continue
            # Class member declaration?
            cls = innermost_class()
            if cls is not None and toks[i].text != "(":
                decl = _try_parse_decl(toks, i)
                if decl is not None:
                    name, type_toks, stmt_end, _ = decl
                    # A member function definition also matches the decl
                    # shape up to '('; only record data members.
                    if stmt_end < n and not _looks_like_function(
                            toks, i, stmt_end):
                        model.members.setdefault(cls, {})
                        model.members[cls][name] = base_type_of(type_toks)
                        i = stmt_end
                        continue
            i += 1
            continue
        i += 1
    return model


def _looks_like_function(toks: list[Tok], i: int, stmt_end: int) -> bool:
    k = i
    while k < stmt_end:
        if toks[k].text == "(":
            return True
        if toks[k].text in ("=", ";", "{"):
            return False
        k += 1
    return False


def _try_parse_decl(toks: list[Tok], i: int):
    """Parses a declaration starting at i: qualifiers, a type (identifier
    chain with optional template args / pointers / refs), then a name,
    terminated by ';', '=', '{' or '('. Returns (name, type_tokens,
    terminator_index, init_kind) or None."""
    n = len(toks)
    j = i
    type_toks: list[str] = []
    saw_type_id = False
    last_ident = None
    last_ident_at = -1
    while j < n:
        t = toks[j].text
        if t in _DECL_QUALIFIERS:
            type_toks.append(t)
            j += 1
            continue
        if _TYPE_STARTERS.match(t):
            if t in _KEYWORDS and t not in ("auto",):
                return None
            # A second bare identifier after a complete one is the name —
            # unless a template list or :: continues the type.
            name_after_scope = bool(type_toks) and type_toks[-1] == "::"
            type_toks.append(t)
            last_ident = t
            last_ident_at = len(type_toks) - 1
            saw_type_id = True
            j += 1
            if j < n and toks[j].text == "<":
                end = _match_forward(toks, j, "<", ">")
                # Heuristic: treat as template args only when the contents
                # look type-ish (no ;) and it closes.
                seg = [tok.text for tok in toks[j:end]]
                if ";" in seg or end >= n:
                    return None
                type_toks.extend(seg)
                j = end
            if j < n and toks[j].text == "::":
                type_toks.append("::")
                j += 1
                continue
            # Lookahead: next token decides whether last_ident was the name.
            if j < n and toks[j].text in (";", "=", "{", "(", ":", ",", ")"):
                break
            continue
        if t in ("*", "&", "&&"):
            type_toks.append(t)
            j += 1
            continue
        break
    if not saw_type_id or last_ident is None or j >= n:
        return None
    term = toks[j].text if j < n else ";"
    if term not in (";", "=", "{", "(", ":", ",", ")"):
        return None
    # `A::B(...)` / `A::B{...}` is a qualified call or a temporary, never a
    # declaration: a declarator name is not directly scope-qualified.
    if term in ("(", "{") and name_after_scope:
        return None
    # Need at least two identifiers (a type and a name) unless auto.
    ids = [k for k, tt in enumerate(type_toks)
           if _TYPE_STARTERS.match(tt) and tt not in _DECL_QUALIFIERS]
    if len(ids) < 2:
        return None
    type_part = tuple(type_toks[:last_ident_at])
    if not base_type_of(type_part):
        return None
    return last_ident, type_part, j, term


_BLOCKING_WAIT = {"wait", "wait_for", "wait_until"}


def _scan_body(toks: list[Tok], func: FunctionDef, body_open: int,
               model: FileModel) -> None:
    """Walks a function body once, populating locals, loops, calls, allocs,
    locks and deadline checks. `body_open` is the index of the '{'."""
    n = len(toks)
    end = _match_forward(toks, body_open, "{", "}")
    func.body = (body_open + 1, end - 1)
    i = body_open + 1
    brace_stack: list[int] = []          # indices of open '{'
    loop_stack: list[tuple[Loop, int]] = []   # (loop, body_end_index)
    open_locks: list[LockSite] = []
    decl_names: set[int] = set()

    while i < end - 1:
        t = toks[i].text
        line = toks[i].line

        while loop_stack and i >= loop_stack[-1][1]:
            loop_stack.pop()

        if t == "{":
            brace_stack.append(i)
            i += 1
            continue
        if t == "}":
            if brace_stack:
                opened = brace_stack.pop()
                for ls in open_locks:
                    if ls.hold_end == -opened - 1:  # sentinel: block-scoped
                        ls.hold_end = i
            i += 1
            continue

        if t in ("for", "while") and i + 1 < n and toks[i + 1].text == "(":
            header_end = _match_forward(toks, i + 1, "(", ")")
            # Range-for / init-statement declarations introduce locals.
            _collect_header_decls(toks, i + 2, header_end - 1, func)
            body_lo = header_end
            if body_lo < n and toks[body_lo].text == "{":
                body_hi = _match_forward(toks, body_lo, "{", "}")
            else:
                body_hi = _statement_end(toks, body_lo, end)
            loop = Loop(line, (body_lo, body_hi), len(loop_stack) + 1, t)
            func.loops.append(loop)
            loop_stack.append((loop, body_hi))
            i += 1
            continue
        if t == "do" and i + 1 < n and toks[i + 1].text == "{":
            body_lo = i + 1
            body_hi = _match_forward(toks, body_lo, "{", "}")
            loop = Loop(line, (body_lo, body_hi), len(loop_stack) + 1, "do")
            func.loops.append(loop)
            loop_stack.append((loop, body_hi))
            i += 1
            continue

        # Local declarations (and lock acquisitions, which are declarations
        # of guard types).
        if _TYPE_STARTERS.match(t) and t not in _KEYWORDS and \
                _at_statement_start(toks, i):
            decl = _try_parse_decl(toks, i)
            if decl is not None:
                name, type_toks, term_idx, term = decl
                base = base_type_of(type_toks)
                if term in (";", "=", "{", "("):
                    func.locals.setdefault(name, base)
                    decl_names.add(term_idx - 1)
                    init_lo = term_idx + 1
                    if term == ";":
                        init_hi = term_idx
                    elif term == "=":
                        init_hi = _statement_end(toks, init_lo, end)
                    elif term == "(":
                        init_hi = _match_forward(toks, term_idx, "(", ")")
                    else:
                        init_hi = _match_forward(toks, term_idx, "{", "}")
                    init_text = " ".join(
                        tok.text for tok in toks[init_lo:init_hi - 1]) \
                        if term != ";" else ""
                    func.local_init[name] = init_text
                    if base in _LOCK_TYPES and term in ("(", "{"):
                        keys = _lock_keys(toks, term_idx, init_hi, func,
                                          model)
                        site = LockSite(line, i,
                                        -(brace_stack[-1] if brace_stack
                                          else body_open) - 1,
                                        keys, name, base)
                        func.locks.append(site)
                        open_locks.append(site)
                    elif base in _STD_CONTAINERS and term in ("(", "{") and \
                            init_hi > init_lo + 1:
                        func.allocs.append(Alloc(
                            line, i, "sized-decl", name,
                            f"sized construction of {base} '{name}'"))
                    # Keep scanning inside the initializer: call sites and
                    # allocations in there still count.
                    i = term_idx + 1
                    continue
            # fall through: not a declaration

        if t == "new":
            prev = toks[i - 1].text if i > 0 else ""
            if prev != "::" and prev != "delete":
                func.allocs.append(Alloc(line, i, "new", "",
                                         "operator new"))
            i += 1
            continue

        # Calls / method calls.
        if _TYPE_STARTERS.match(t) and i + 1 < n and \
                toks[i + 1].text == "(" and t not in _KEYWORDS and \
                i not in decl_names:
            args_end = _match_forward(toks, i + 1, "(", ")")
            base, member, is_method = receiver_chain(toks, i)
            qualifier: str | None = None
            if i >= 1 and toks[i - 1].text == "::":
                prev = toks[i - 2].text if i >= 2 else ""
                qualifier = prev if _TYPE_STARTERS.match(prev) else ""
            call = Call(t, line, i, (i + 2, args_end - 1), base, member,
                        is_method, qualifier)
            func.calls.append(call)
            if t == "thread_arena":
                func.has_thread_arena = True
            if t in ("make_unique", "make_shared"):
                func.allocs.append(Alloc(line, i, t, "", f"std::{t}"))
            if is_method and t in _GROW_METHODS:
                owner = member if member is not None else (base or "")
                owner_base = base if member is not None and base != owner \
                    else ""
                func.allocs.append(Alloc(line, i, "grow", owner,
                                         f".{t}() on '{owner}'", owner_base))
            if is_method and t in ("check", "expired"):
                recv = member or base or ""
                rtype = _resolve_type(recv, func, model)
                if rtype in DEADLINE_TYPES or _DEADLINE_NAME_RE.search(recv):
                    func.check_indices.append(i)
            if is_method and t == "unlock":
                recv = base or ""
                for ls in open_locks:
                    if ls.lock_var == recv and ls.hold_end < 0:
                        ls.hold_end = i
            if is_method and t == "lock" and base is not None:
                rtype = _resolve_type(member or base, func, model)
                if rtype == "mutex":
                    site = LockSite(line, i, func.body[1],
                                    (_qualify_mutex(member or base, base,
                                                    member, func, model),),
                                    "", "manual")
                    func.locks.append(site)
                    open_locks.append(site)
            i += 1
            continue

        # Dotted assignments: var.member = ... (deadline forwarding trace).
        if t in ("=",) and i >= 2 and _TYPE_STARTERS.match(toks[i - 1].text) \
                and toks[i - 2].text in (".", "->") and i >= 3 and \
                _TYPE_STARTERS.match(toks[i - 3].text):
            func.dotted_assigns.add(f"{toks[i - 3].text}.{toks[i - 1].text}")
            i += 1
            continue
        i += 1

    # Any lock still open at function end holds to the end of the body.
    for ls in open_locks:
        if ls.hold_end < 0:
            ls.hold_end = end - 1


def _statement_end(toks: list[Tok], i: int, limit: int) -> int:
    depth = 0
    while i < limit:
        t = toks[i].text
        if t in ("(", "{", "["):
            depth += 1
        elif t in (")", "}", "]"):
            depth -= 1
        elif t == ";" and depth <= 0:
            return i + 1
        i += 1
    return limit


def _at_statement_start(toks: list[Tok], i: int) -> bool:
    prev = toks[i - 1].text if i > 0 else "{"
    return prev in ("{", "}", ";", ")", ":", "else", "do")


def _collect_header_decls(toks: list[Tok], lo: int, hi: int,
                          func: FunctionDef) -> None:
    decl = _try_parse_decl(toks, lo)
    if decl is not None:
        name, type_toks, _, term = decl
        if term in ("=", ":", ";", ")"):
            func.locals.setdefault(name, base_type_of(type_toks))


def _resolve_type(name: str, func: FunctionDef, model: FileModel) -> str:
    if not name:
        return ""
    if name in func.locals and func.locals[name]:
        return func.locals[name]
    for p in func.params:
        if p.name == name:
            return base_type_of(p.type_tokens)
    if func.cls and func.cls in model.members and \
            name in model.members[func.cls]:
        return model.members[func.cls][name]
    hits = {members[name] for members in model.members.values()
            if name in members}
    if len(hits) == 1:
        return hits.pop()
    return ""


def _owner_class_of_member(name: str, func: FunctionDef,
                           model: FileModel) -> str | None:
    if func.cls and name in model.members.get(func.cls, {}):
        return func.cls
    owners = [cls for cls, members in model.members.items() if name in members]
    if len(owners) == 1:
        return owners[0]
    return None


def _qualify_mutex(name: str, base: str | None, member: str | None,
                   func: FunctionDef, model: FileModel) -> str:
    """A stable identity for a mutex expression: Class::member when the
    owner resolves, function::name for locals, bare name otherwise."""
    if member is not None and base is not None and member != base:
        btype = _resolve_type(base, func, model)
        if btype:
            return f"{btype}::{member}"
        return member
    if name in func.locals or any(p.name == name for p in func.params):
        return f"{func.qualname}::{name}"
    owner = _owner_class_of_member(name, func, model)
    if owner:
        return f"{owner}::{name}"
    return name


def _lock_keys(toks: list[Tok], open_paren: int, close: int,
               func: FunctionDef, model: FileModel) -> tuple[str, ...]:
    """Mutex identities from a guard's argument list (scoped_lock may name
    several). Each top-level argument contributes its trailing identifier
    chain."""
    keys: list[str] = []
    depth = 0
    arg: list[str] = []
    for k in range(open_paren + 1, close - 1):
        t = toks[k].text
        if t in ("(", "[", "{", "<"):
            depth += 1
        elif t in (")", "]", "}", ">"):
            depth -= 1
        if t == "," and depth == 0:
            key = _arg_mutex_key(arg, func, model)
            if key:
                keys.append(key)
            arg = []
        else:
            arg.append(t)
    key = _arg_mutex_key(arg, func, model)
    if key:
        keys.append(key)
    # The guard variable name itself is argument 0 only for adopt_lock
    # forms we do not use; every argument here is a mutex expression.
    return tuple(keys)


def _arg_mutex_key(arg_tokens: list[str], func: FunctionDef,
                   model: FileModel) -> str:
    ids = [t for t in arg_tokens if _TYPE_STARTERS.match(t)
           and t not in _DECL_QUALIFIERS and t != "std"]
    if not ids:
        return ""
    name = ids[-1]
    base = ids[0] if len(ids) > 1 else None
    member = ids[-1] if len(ids) > 1 else None
    return _qualify_mutex(name, base, member, func, model)


def _try_parse_function(toks: list[Tok], i: int, rel_path: str,
                        scopes: list[_Scope]):
    """Detects a function definition whose parameter list's '(' appears at
    or after token i. Returns (FunctionDef, body_open_index) or None when
    token i does not begin one."""
    n = len(toks)
    t = toks[i].text
    if not _TYPE_STARTERS.match(t) or t in _KEYWORDS:
        return None
    # Find the '(' of a candidate: walk a declaration-ish prefix.
    j = i
    last_ident = None
    quals: list[str] = []
    while j < n:
        tt = toks[j].text
        if _TYPE_STARTERS.match(tt):
            if tt in _KEYWORDS and tt not in ("auto", "operator"):
                return None
            last_ident = tt
            j += 1
            if j < n and toks[j].text == "<":
                j = _match_forward(toks, j, "<", ">")
            continue
        if tt == "::":
            if j + 1 < n and _TYPE_STARTERS.match(toks[j + 1].text):
                quals.append(last_ident or "")
                j += 1
                continue
            return None
        if tt in ("*", "&", "&&", "[", "]"):
            if tt == "[":
                j = _match_forward(toks, j, "[", "]")
                continue
            j += 1
            continue
        if tt == "(":
            break
        return None
    if j >= n or toks[j].text != "(" or last_ident is None:
        return None
    params_end = _match_forward(toks, j, "(", ")")
    # Post-parameter suffix: const/noexcept/override/final/-> type, then an
    # optional ctor initializer list, then '{' for a definition.
    k = params_end
    while k < n:
        tt = toks[k].text
        if tt in ("const", "noexcept", "override", "final", "mutable", "&",
                  "&&", "try"):
            k += 1
            continue
        if tt == "(":  # noexcept(...)
            k = _match_forward(toks, k, "(", ")")
            continue
        if tt == "->":
            k += 1
            while k < n and toks[k].text not in ("{", ";"):
                if toks[k].text == "<":
                    k = _match_forward(toks, k, "<", ">")
                else:
                    k += 1
            continue
        if tt == ":":
            k += 1
            while k < n:
                if not _TYPE_STARTERS.match(toks[k].text):
                    break
                k += 1
                if k < n and toks[k].text == "<":
                    k = _match_forward(toks, k, "<", ">")
                if k < n and toks[k].text in ("(", "{"):
                    k = _match_forward(toks, k, toks[k].text,
                                       ")" if toks[k].text == "(" else "}")
                if k < n and toks[k].text == ",":
                    k += 1
                    continue
                break
            continue
        break
    if k >= n or toks[k].text != "{":
        return None
    # Reject control-flow false positives and calls: the name must not be a
    # keyword, and a call statement would have ended with ';'.
    name = last_ident
    if name in _KEYWORDS:
        return None
    cls = quals[-1] if quals else None
    if cls is None:
        for s in reversed(scopes):
            if s.kind == "class":
                cls = s.name
                break
    params = _parse_params(toks, j + 1, params_end - 1)
    qual = f"{cls}::{name}" if cls else name
    func = FunctionDef(
        name=name, qualname=qual, cls=cls, path=rel_path, line=toks[i].line,
        params=params, body=(k, k), locals={}, local_init={}, loops=[],
        calls=[], allocs=[], locks=[], check_indices=[],
        dotted_assigns=set())
    for p in params:
        if p.name:
            func.locals.setdefault(p.name, base_type_of(p.type_tokens))
    return func, k


def _parse_params(toks: list[Tok], lo: int, hi: int) -> list[Param]:
    params: list[Param] = []
    depth = 0
    cur: list[str] = []
    for k in range(lo, hi):
        t = toks[k].text
        if t in ("(", "[", "{", "<"):
            depth += 1
        elif t in (")", "]", "}", ">"):
            depth -= 1
        if t == "," and depth == 0:
            params.append(_finish_param(cur))
            cur = []
        else:
            cur.append(t)
    if cur:
        params.append(_finish_param(cur))
    return [p for p in params if p.type_tokens or p.name]


def _finish_param(tokens: list[str]) -> Param:
    # Strip a default argument.
    if "=" in tokens:
        tokens = tokens[:tokens.index("=")]
    name = ""
    type_end = len(tokens)
    for k in range(len(tokens) - 1, -1, -1):
        t = tokens[k]
        if _TYPE_STARTERS.match(t) and t not in _DECL_QUALIFIERS:
            # The last identifier is the name iff something type-ish
            # precedes it.
            before = [x for x in tokens[:k]
                      if _TYPE_STARTERS.match(x) and x not in _DECL_QUALIFIERS]
            if before:
                name = t
                type_end = k
            break
    return Param(name, tuple(tokens[:type_end]))
