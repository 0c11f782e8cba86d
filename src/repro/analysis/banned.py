"""Banned-pattern checker: constructs this codebase never allows.

``BAN001``
    Bare ``except:`` — swallows ``KeyboardInterrupt``/``SystemExit``
    and masks scheduler shutdown; name the exceptions (worst case
    ``except Exception:``).
``BAN002``
    ``pickle.loads``/``pickle.load`` outside ``parallel/executor.py``.
    Pickle is how the process pool moves work between *our own*
    processes; anywhere else (and especially on network-sourced bytes)
    it is an arbitrary-code-execution hole.  The wire protocol is JSON.
``BAN003``
    Mutable default argument (``def f(x=[])``) — the default is shared
    across calls, a classic aliasing bug in long-lived services.
``BAN004``
    ``urlopen`` outside ``serve/client.py``, or ``ThreadingHTTPServer``
    outside ``serve/http.py``.  The service tier has one client
    transport (it maps every transport failure to a typed
    ``ServiceError`` and closes the response on every path) and one
    listener/handler stack (it validates every request body); a second
    copy of either is how the two tiers drifted apart before.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Finding, ParsedFile, checker

RULES = {
    "BAN001": "bare except: — name the exceptions",
    "BAN002": "pickle.load(s) outside parallel/executor.py",
    "BAN003": "mutable default argument",
    "BAN004": "urlopen outside serve/client.py / ThreadingHTTPServer outside serve/http.py",
}

# Pickle is how the process pool moves work between our own processes.
_PICKLE = ("BAN002", "parallel/executor.py",
           "unpickling untrusted bytes executes arbitrary code; "
           "the wire protocol is JSON")

#: Calls confined to one module each:
#: dotted callee (matched on its tail) -> (rule, allowed path suffix, why).
CONFINED_CALLS = {
    "pickle.load": _PICKLE,
    "pickle.loads": _PICKLE,
    "urlopen": (
        "BAN004", "serve/client.py",
        "the service tier has one client transport; go through ServiceClient"),
    "ThreadingHTTPServer": (
        "BAN004", "serve/http.py",
        "the service tier has one listener stack; subclass HttpService"),
}

_MUTABLE_CTORS = {"list", "dict", "set", "bytearray", "deque", "defaultdict",
                  "Counter", "OrderedDict"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None)
        return name in _MUTABLE_CTORS
    return False


EXAMPLES = {
    "BAN001": ("try:\n    risky()\nexcept:\n    pass",
               "try:\n    risky()\nexcept OSError:\n    recover()"),
    "BAN002": ("payload = pickle.loads(blob)",
               "payload = json.loads(blob)  # or move into parallel/executor.py"),
    "BAN003": ("def add(item, bucket=[]):\n    bucket.append(item)",
               "def add(item, bucket=None):\n    bucket = [] if bucket is None else bucket"),
    "BAN004": ("# gateway/router.py\nwith urllib.request.urlopen(node_url + \"/stats\") as resp:\n"
               "    stats = json.loads(resp.read())",
               "# gateway/router.py\nstats = ServiceClient(node_url).stats()"),
}


@checker("banned-patterns", scope="file", rules=RULES,
         examples=EXAMPLES)
def check_banned(pf: ParsedFile) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(pf.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(pf.finding(
                "BAN001", node,
                "bare except: swallows KeyboardInterrupt/SystemExit; "
                "name the exceptions"))
        elif isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            for name, (rule, allowed, why) in CONFINED_CALLS.items():
                if ((callee == name or callee.endswith("." + name))
                        and not pf.path.endswith(allowed)):
                    findings.append(pf.finding(
                        rule, node, f"{callee} outside {allowed}: {why}"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                if _is_mutable_default(default):
                    findings.append(pf.finding(
                        "BAN003", default,
                        f"mutable default argument in {node.name}(): "
                        "the default object is shared across calls"))
    return findings
