"""UDF sources and CREATE FUNCTION texts for all six designs (Table 1).

``probe`` is the calibration UDF of Figs 5 and 8: it reads the length and
first byte of its by-value argument (so the oracle can tell the argument
crossed the boundary intact) and makes ``num_callbacks`` empty callbacks.
``generic`` is the paper's generic UDF of Figs 6-7.  Each has a pure-Python
model that the result oracle uses; the models share no code with the engine.
"""

PROBE_JAGSCRIPT = """
def probe(data: bytes, num_callbacks: int) -> int:
    s: int = len(data) + data[0]
    for c in range(num_callbacks):
        s = s + cb_noop()
    return s
"""

GENERIC_JAGSCRIPT = """
def generic(data: bytes, num_indep: int, num_dep: int,
            num_callbacks: int) -> int:
    s: int = 0
    for j in range(num_indep):
        s = s + 1
    for p in range(num_dep):
        for i in range(len(data)):
            s = s + data[i]
    for c in range(num_callbacks):
        s = s + cb_noop()
    return s
"""

#: Same signatures, empty bodies: what is left of a VM call when the body
#: is taken away (entry + argument marshalling).  Only the traced run's
#: ``vm.entry_us`` probe registers them, under scratch names.
PROBE_NOOP_JAGSCRIPT = """
def probe_noop(data: bytes, num_callbacks: int) -> int:
    return 0
"""

GENERIC_NOOP_JAGSCRIPT = """
def generic_noop(data: bytes, num_indep: int, num_dep: int,
                 num_callbacks: int) -> int:
    return 0
"""

SCORE_JAGSCRIPT = """
def score(qty: int, weight: int) -> int:
    return qty * 3 + weight
"""

#: design -> (LANGUAGE, DESIGN) as CREATE FUNCTION spells them.
DESIGNS = {
    "native_integrated": ("NATIVE", "INTEGRATED"),
    "native_sfi": ("NATIVE", "SFI"),
    "native_isolated": ("NATIVE", "ISOLATED"),
    "sandbox_jit": ("JAGUAR", "SANDBOX"),
    "sandbox_interp": ("JAGUAR", "SANDBOX_INTERP"),
    "sandbox_isolated": ("JAGUAR", "SANDBOX_ISOLATED"),
}

_SOURCES = {
    "probe": ("bytes, int", PROBE_JAGSCRIPT, "'cb_noop'"),
    "generic": ("bytes, int, int, int", GENERIC_JAGSCRIPT, "'cb_noop'"),
    "score": ("int, int", SCORE_JAGSCRIPT, None),
    "probe_noop": ("bytes, int", PROBE_NOOP_JAGSCRIPT, None),
    "generic_noop": ("bytes, int, int, int", GENERIC_NOOP_JAGSCRIPT, None),
}


def udf_name(function: str, design: str) -> str:
    return f"{function}_{design}"


def create_function_sql(function: str, design: str, name=None) -> str:
    params, source, callbacks = _SOURCES[function]
    name = name or udf_name(function, design)
    language, keyword = DESIGNS[design]
    if language == "NATIVE":
        payload = f"pb_native_udfs:{function}"
    else:
        payload = source.replace("'", "''")
    grant = f" CALLBACKS {callbacks}" if callbacks else ""
    return (
        f"CREATE FUNCTION {name}({params}) "
        f"RETURNS int LANGUAGE {language} DESIGN {keyword} "
        f"ENTRY '{function}'{grant} AS '{payload}'"
    )


# -- pure-Python models (the oracle's side) ----------------------------------

def probe_model(data: bytes, num_callbacks: int) -> int:
    return len(data) + data[0]      # cb_noop() returns 0


def generic_model(data: bytes, num_indep: int, num_dep: int,
                  num_callbacks: int) -> int:
    return num_indep + num_dep * sum(data)


def score_model(qty: int, weight: int) -> int:
    return qty * 3 + weight
