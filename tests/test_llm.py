import inspect
import json
import re
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import ROOT, bundle_for, replay_by_scan, small_schema

from medtab.llm import (AuthenticationError, CompletionRequest, ExhaustedRetriesError,
                        HttpProvider, ProviderConfigError, ReplayEntry, ReplayExhaustedError,
                        ReplayProvider, RETRY_AFTER_CAP_S, RequestTooLargeError, TransportResponse,
                        configure_provider)
from medtab.vorc import extract_corpus


def completions_body(text):
    return json.dumps({"choices": [{"text": text}]})


def chat_body(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


class ScriptedTransport:
    """Yields a fixed sequence of (status, headers, body) per call."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0
        self.seen_payloads = []

    def __call__(self, url, headers, payload, timeout):
        self.calls += 1
        self.seen_payloads.append(payload)
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        status, headers_out, body = item
        return TransportResponse(status=status, headers=headers_out, text=body)


@pytest.fixture
def credential(monkeypatch):
    monkeypatch.setenv("TEST_LLM_TOKEN", "sekrit")
    return "TEST_LLM_TOKEN"


def make_provider(credential, transport, **kw):
    sleeps = []
    provider = HttpProvider(endpoint="https://llm.example/v1/completions",
                            model="test-model", credential_env=credential,
                            transport=transport, sleep=sleeps.append, **kw)
    return provider, sleeps


class TestHttpProvider:
    def test_success_first_attempt(self, credential):
        transport = ScriptedTransport([(200, {}, completions_body("hello"))])
        provider, _ = make_provider(credential, transport)
        result = provider.complete(CompletionRequest(prompt="hi"))
        assert result.text == "hello"
        assert result.attempt_count == 1
        assert result.provider_id == "test-model"
        assert result.latency_ms >= 0

    def test_retries_then_succeeds(self, credential):
        transport = ScriptedTransport([(500, {}, "boom"), (502, {}, "boom"),
                                       (200, {}, completions_body("ok"))])
        provider, sleeps = make_provider(credential, transport)
        result = provider.complete(CompletionRequest(prompt="hi"))
        assert result.attempt_count == 3
        assert len(sleeps) == 2
        # exponential backoff: base 1s then 2s, each with up to 10% jitter
        assert 1.0 <= sleeps[0] <= 1.1
        assert 2.0 <= sleeps[1] <= 2.2

    def test_exhausted_retries_carries_last_status(self, credential):
        transport = ScriptedTransport([(503, {}, "x")] * 3)
        provider, _ = make_provider(credential, transport, max_attempts=3)
        with pytest.raises(ExhaustedRetriesError) as exc:
            provider.complete(CompletionRequest(prompt="hi"))
        assert exc.value.last_status == 503

    def test_retry_after_header_honored(self, credential):
        transport = ScriptedTransport([(429, {"Retry-After": "7"}, ""),
                                       (200, {}, completions_body("ok"))])
        provider, sleeps = make_provider(credential, transport)
        provider.complete(CompletionRequest(prompt="hi"))
        assert sleeps == [7.0]

    @pytest.mark.parametrize("value", ["inf", "1e400", "nan", "-3", "1e9", "soon"])
    def test_retry_after_out_of_range_is_bounded(self, credential, value):
        # time.sleep raises OverflowError on inf and would stall on 1e9
        transport = ScriptedTransport([(429, {"Retry-After": value}, ""),
                                       (200, {}, completions_body("ok"))])
        provider, sleeps = make_provider(credential, transport)
        assert provider.complete(CompletionRequest(prompt="hi")).text == "ok"
        assert len(sleeps) == 1
        assert 0.0 <= sleeps[0] <= RETRY_AFTER_CAP_S
        if value == "1e9":
            assert sleeps == [RETRY_AFTER_CAP_S]
        else:  # not a finite, non-negative number: exponential backoff
            assert 1.0 <= sleeps[0] <= 1.1

    def test_authentication_failure_not_retried(self, credential):
        transport = ScriptedTransport([(401, {}, "no")])
        provider, _ = make_provider(credential, transport)
        with pytest.raises(AuthenticationError):
            provider.complete(CompletionRequest(prompt="hi"))
        assert transport.calls == 1

    def test_request_too_large_surfaced(self, credential):
        transport = ScriptedTransport([(413, {}, "too big")])
        provider, _ = make_provider(credential, transport)
        with pytest.raises(RequestTooLargeError):
            provider.complete(CompletionRequest(prompt="hi"))

    def test_connection_errors_retried(self, credential):
        transport = ScriptedTransport([ConnectionError("reset"),
                                       (200, {}, completions_body("ok"))])
        provider, _ = make_provider(credential, transport)
        assert provider.complete(CompletionRequest(prompt="hi")).attempt_count == 2

    def test_chat_wire_format(self, credential):
        transport = ScriptedTransport([(200, {}, chat_body("chatty"))])
        provider, _ = make_provider(credential, transport, chat=True)
        result = provider.complete(CompletionRequest(prompt="hi there"))
        assert result.text == "chatty"
        payload = transport.seen_payloads[0]
        assert payload == {"model": "test-model", "max_tokens": 1024, "temperature": 0.0,
                           "messages": [{"role": "user", "content": "hi there"}]}

    def test_completions_wire_format(self, credential):
        transport = ScriptedTransport([(200, {}, completions_body("x"))])
        provider, _ = make_provider(credential, transport)
        provider.complete(CompletionRequest(prompt="raw prompt"))
        payload = transport.seen_payloads[0]
        assert payload == {"model": "test-model", "max_tokens": 1024, "temperature": 0.0,
                           "prompt": "raw prompt"}
        assert type(payload["temperature"]) is float

    @pytest.mark.parametrize("chat", [False, True], ids=["completions", "chat"])
    @pytest.mark.parametrize("text", [None, 5, ["a"]], ids=["null", "number", "list"])
    def test_non_string_completion_text_is_a_provider_error(self, credential, chat, text):
        wrap = chat_body if chat else completions_body
        transport = ScriptedTransport([(200, {}, wrap(text)),
                                       (200, {}, wrap('{"age": 1, "sex": "F"}'))])
        provider, _ = make_provider(credential, transport, chat=chat)
        schema = small_schema()
        result = extract_corpus(provider, [("a", "r1"), ("b", "r2")], schema,
                                bundle_for(schema, {"age": 40, "sex": "M"}), 3)
        failure, = result.failures
        assert (failure.source_id, failure.reason) == ("a", "provider-error")
        assert failure.detail.startswith("malformed provider response: ")
        assert [r.source_id for r in result.records] == ["b"]

    @pytest.mark.parametrize("body", [
        '{"choices": [{"text": "x"}], "usage": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"choices": [{"text": "x"}], "usage": ' + "9" * 5000 + "}",
    ], ids=["nested-too-deep", "5000-digit-integer"])
    def test_body_json_cannot_decode_is_a_provider_error(self, credential, body):
        """json raises RecursionError and a plain ValueError for these bodies;
        each is a malformed response, so the corpus goes on."""
        transport = ScriptedTransport([(200, {}, body),
                                       (200, {}, completions_body('{"age": 1, "sex": "F"}'))])
        provider, _ = make_provider(credential, transport)
        schema = small_schema()
        result = extract_corpus(provider, [("a", "r1"), ("b", "r2")], schema,
                                bundle_for(schema, {"age": 40, "sex": "M"}), 3)
        failure, = result.failures
        assert (failure.source_id, failure.reason) == ("a", "provider-error")
        assert failure.detail.startswith("malformed provider response: ")
        assert [r.source_id for r in result.records] == ["b"]

    def test_permit_limit_observed(self, credential):
        barrier = threading.Barrier(8, timeout=5)
        lock = threading.Lock()
        two_inside = threading.Event()
        release = threading.Event()
        in_flight = peak = 0

        def counting_transport(url, headers, payload, timeout):
            nonlocal in_flight, peak
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
                if in_flight == 2:
                    two_inside.set()
            release.wait(timeout=5)
            with lock:
                in_flight -= 1
            return TransportResponse(200, {}, completions_body("ok"))

        provider = HttpProvider(endpoint="e", model="m", credential_env=credential,
                                transport=counting_transport, permits=2, sleep=lambda s: None)

        def worker():
            barrier.wait()
            provider.complete(CompletionRequest(prompt="hi"))

        threads = [threading.Thread(target=worker) for _ in range(7)]
        for t in threads:
            t.start()
        barrier.wait()
        assert two_inside.wait(timeout=5)
        time.sleep(0.05)  # room for any caller beyond the permits to get in
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert peak == 2


class TestLiveHttpTransport:
    """Drives the default requests-based transport against an in-process server."""

    @pytest.fixture
    def server(self):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        state = {"fail_first": 0}

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                if state["fail_first"] > 0:
                    state["fail_first"] -= 1
                    self.send_response(429)  # no Retry-After: the client backs off
                    self.end_headers()
                    return
                resp = json.dumps({"choices": [{"text": "echo:" + body["prompt"]}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(resp)))
                self.end_headers()
                self.wfile.write(resp)

            def log_message(self, *args):
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield httpd.server_address[1], state
        httpd.shutdown()

    def test_round_trip(self, server, credential):
        port, _ = server
        provider = HttpProvider(endpoint=f"http://127.0.0.1:{port}/v1/completions",
                                model="m", credential_env=credential)
        result = provider.complete(CompletionRequest(prompt="hello"))
        assert result.text == "echo:hello"
        assert result.attempt_count == 1

    def test_retry_through_real_transport(self, server, credential):
        port, state = server
        state["fail_first"] = 2
        waits = []
        provider = HttpProvider(endpoint=f"http://127.0.0.1:{port}/v1/completions",
                                model="m", credential_env=credential, sleep=waits.append)
        result = provider.complete(CompletionRequest(prompt="x"))
        assert result.attempt_count == 3
        assert len(waits) == 2
        assert 1.0 <= waits[0] <= 1.1 and 2.0 <= waits[1] <= 2.2


class TestReplayProvider:
    def test_index_order_passthrough(self):
        provider = ReplayProvider([ReplayEntry(response='{"age": 63}')])
        result = provider.complete(CompletionRequest(prompt="anything"))
        assert result.text == '{"age": 63}'
        assert result.attempt_count == 1

    def test_match_substring_selection(self):
        provider = ReplayProvider([
            ReplayEntry(response="for-b", match_substring="[b]"),
            ReplayEntry(response="for-a", match_substring="[a]"),
        ])
        assert provider.complete(CompletionRequest(prompt="report [a] text")).text == "for-a"
        assert provider.complete(CompletionRequest(prompt="report [b] text")).text == "for-b"

    def test_exhaustion_raises(self):
        provider = ReplayProvider([ReplayEntry(response="only one")])
        provider.complete(CompletionRequest(prompt="x"))
        with pytest.raises(Exception, match="no pending replay entry"):
            provider.complete(CompletionRequest(prompt="x"))

    def test_from_file(self, tmp_path):
        script = tmp_path / "replay.json"
        script.write_text(json.dumps([{"response": "a"}, {"match_substring": "z", "response": "b"}]))
        provider = ReplayProvider.from_file(script)
        assert provider.complete(CompletionRequest(prompt="has z inside")).text == "a"
        assert provider.complete(CompletionRequest(prompt="has z inside")).text == "b"
        with pytest.raises(ReplayExhaustedError):
            provider.complete(CompletionRequest(prompt="has z inside"))

    # Nested and overlapping keys, keys that share a first character but no
    # longer prefix, and "" and None, which match any prompt.
    KEYS = st.one_of(st.sampled_from(["a", "ab", "ba", "b", "aa", "[a]", "[a]x", "x[a]", "[b]",
                                      "", None]),
                     st.text(alphabet="ab[]x", min_size=1, max_size=4))

    @given(keys=st.lists(KEYS, max_size=25),
           prompts=st.lists(st.text(alphabet="ab[]xy", min_size=1, max_size=12),
                            min_size=1, max_size=30))
    # a shared prefix ("aa") that overlaps itself in the prompt
    @example(keys=["aab", "aaa"], prompts=["aaab", "aaab"])
    @settings(max_examples=400, deadline=None)
    def test_serves_what_a_linear_scan_serves(self, keys, prompts):
        entries = [ReplayEntry(response=f"r{i}", match_substring=key)
                   for i, key in enumerate(keys)]
        provider, pending = ReplayProvider(entries), list(entries)

        def outcomes(complete):
            served = []
            for prompt in prompts:
                try:
                    served.append(complete(prompt))
                except ReplayExhaustedError:
                    served.append(None)
            return served

        expected = outcomes(lambda prompt: replay_by_scan(pending, prompt))
        assert outcomes(lambda prompt: provider.complete(CompletionRequest(prompt)).text) \
            == expected

    def test_unused_leading_entries_do_not_change_the_choice(self):
        unused = [ReplayEntry(response=f"unused-{i}", match_substring=f"[rpt-{i:05d}]")
                  for i in range(1000)]
        provider = ReplayProvider(unused + [ReplayEntry(response="b", match_substring="[rpt-b]"),
                                            ReplayEntry(response="any"),
                                            ReplayEntry(response="a", match_substring="[rpt-a]")])
        assert provider.complete(CompletionRequest("report [rpt-a] [rpt-b]")).text == "b"
        assert provider.complete(CompletionRequest("report [rpt-a]")).text == "any"
        assert provider.complete(CompletionRequest("report [rpt-a]")).text == "a"
        with pytest.raises(ReplayExhaustedError):
            provider.complete(CompletionRequest("report [rpt-a] [rpt-b]"))
        assert provider.complete(CompletionRequest("[rpt-00999]")).text == "unused-999"

    def test_concurrent_callers_each_get_their_own_entries_in_order(self):
        workers, calls = 8, 50
        provider = ReplayProvider([ReplayEntry(response=f"{w}:{c}", match_substring=f"[w{w}]")
                                   for c in range(calls) for w in range(workers)])
        served = {w: [] for w in range(workers)}

        def work(w):
            for _ in range(calls):
                served[w].append(provider.complete(CompletionRequest(f"report [w{w}]")).text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert served == {w: [f"{w}:{c}" for c in range(calls)] for w in range(workers)}
        with pytest.raises(ReplayExhaustedError):
            provider.complete(CompletionRequest("[w0] [w1] [w2] [w3] [w4] [w5] [w6] [w7]"))


class TestConfigureProvider:
    def test_http_requires_settings(self, credential):
        provider = configure_provider("http", {"endpoint": "https://e", "model":
                                               "text-davinci-003", "credential_env": credential})
        assert provider.provider_id == "text-davinci-003"

    def test_missing_setting(self):
        with pytest.raises(ProviderConfigError,
                           match=r"^provider settings: \$\.model must be a string, got nothing$"):
            configure_provider("http", {"endpoint": "https://e"})

    def test_missing_credential_env(self, monkeypatch):
        monkeypatch.delenv("NOPE_TOKEN", raising=False)
        with pytest.raises(ProviderConfigError, match="NOPE_TOKEN"):
            configure_provider("http", {"endpoint": "e", "model": "m",
                                        "credential_env": "NOPE_TOKEN"})

    def test_replay_script_unreadable(self, tmp_path):
        with pytest.raises(ProviderConfigError):
            configure_provider("replay", {"script": tmp_path / "missing.json"})

    def test_replay_entry_missing_response_field(self, tmp_path):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps([{"match_substring": "x"}]))
        with pytest.raises(ProviderConfigError,
                           match=r"\$\[0\]\.response must be a string, got nothing$"):
            configure_provider("replay", {"script": script})

    @pytest.mark.parametrize("entry, key, value", [
        ({"match_substring": 5, "response": "{}"}, "match_substring", "5"),
        ({"match_substring": None, "response": "{}"}, "match_substring", "None"),
        ({"match_substring": ["x"], "response": "{}"}, "match_substring", r"\['x'\]"),
        ({"response": 5}, "response", "5"),
        ({"response": None}, "response", "None"),
    ])
    def test_replay_entry_of_the_wrong_type_names_it(self, tmp_path, entry, key, value):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps([{"response": "ok"}, entry]))
        with pytest.raises(ProviderConfigError, match=f"^{re.escape(str(script))}: "
                           f"\\$\\[1\\]\\.{key} must be a string, got {value}$"):
            configure_provider("replay", {"script": script})

    @pytest.mark.parametrize("kind, extra", [
        ("http", {"permit": 1, "max_attemps": 1}),
        ("replay", {"permits": 2}),
    ])
    def test_unknown_setting_rejected_by_name(self, credential, tmp_path, kind, extra):
        script = tmp_path / "replay.json"
        script.write_text("[]")
        settings = {"http": {"endpoint": "https://e", "model": "m", "credential_env": credential},
                    "replay": {"script": script}}[kind]
        configure_provider(kind, settings)
        with pytest.raises(ProviderConfigError) as err:
            configure_provider(kind, {**settings, **extra})
        known = {"http": "chat, credential_env, endpoint, max_attempts, model, permits, timeout",
                 "replay": "script"}[kind]
        key = next(iter(extra))  # the first unknown key, in the settings' order
        assert str(err.value) == (f"provider settings: $.{key} must be absent (the keys are "
                                  f"{known}), got {extra[key]!r}")

    @pytest.mark.parametrize("kind, key, value, expected", [
        ("replay", "script", 5, "a file path string"),
        ("replay", "script", None, "a file path string"),
        ("replay", "script", ["replay.json"], "a file path string"),
        ("http", "endpoint", 5, "a string"),
        ("http", "credential_env", 1, "a string"),
    ])
    def test_required_setting_of_the_wrong_type_rejected_by_name(self, credential, kind, key,
                                                                 value, expected):
        settings = {"http": {"endpoint": "e", "model": "m", "credential_env": credential},
                    "replay": {}}[kind]
        with pytest.raises(ProviderConfigError) as err:
            configure_provider(kind, {**settings, key: value})
        assert str(err.value) == f"provider settings: $.{key} must be {expected}, got {value!r}"

    def test_readme_http_settings_load_and_absent_ones_take_the_defaults(self, credential):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r'"provider": (\{.*?\}),\n', readme, re.S).group(1)
        settings = {**json.loads(block), "credential_env": credential}
        provider = configure_provider(settings.pop("kind"), settings)
        assert (provider.chat, provider.max_attempts) == (False, 5)
        defaults = inspect.signature(HttpProvider).parameters
        bare = configure_provider("http", {"endpoint": "e", "model": "m",
                                           "credential_env": credential})
        assert bare.max_attempts == defaults["max_attempts"].default
        assert bare.timeout == defaults["timeout"].default
        assert bare.chat is defaults["chat"].default

    @pytest.mark.parametrize("chat", [True, False])
    def test_chat_boolean_passes_through(self, credential, chat):
        provider = configure_provider("http", {"endpoint": "e", "model": "m",
                                               "credential_env": credential, "chat": chat})
        assert provider.chat is chat

    @pytest.mark.parametrize("chat", ["false", 1])
    def test_chat_that_is_not_a_boolean_rejected(self, credential, chat):
        with pytest.raises(ProviderConfigError, match="chat must be true or false"):
            configure_provider("http", {"endpoint": "e", "model": "m",
                                        "credential_env": credential, "chat": chat})

    @pytest.mark.parametrize("key", ["permits", "max_attempts"])
    @pytest.mark.parametrize("value", [None, "2", True, 0, -1, float("nan"), 2.0])
    def test_count_that_is_not_a_positive_integer_rejected(self, credential, key, value):
        with pytest.raises(ProviderConfigError) as err:
            configure_provider("http", {"endpoint": "e", "model": "m",
                                        "credential_env": credential, key: value})
        assert str(err.value) == (f"provider settings: $.{key} must be an integer of "
                                  f"at least 1, got {value!r}")

    @pytest.mark.parametrize("value", [None, "2", True, 0, -1, -0.5, float("nan"),
                                       float("inf")])
    def test_timeout_that_is_not_a_positive_finite_number_rejected(self, credential, value):
        with pytest.raises(ProviderConfigError) as err:
            configure_provider("http", {"endpoint": "e", "model": "m",
                                        "credential_env": credential, "timeout": value})
        assert str(err.value) == ("provider settings: $.timeout must be a finite number "
                                  f"greater than 0, got {value!r}")

    def test_smallest_valid_settings_accepted(self, credential):
        provider = configure_provider("http", {"endpoint": "e", "model": "m",
                                               "credential_env": credential, "permits": 1,
                                               "max_attempts": 1, "timeout": 0.5})
        assert (provider.max_attempts, provider.timeout) == (1, 0.5)
        assert provider._permits.acquire(blocking=False)
        assert configure_provider("http", {"endpoint": "e", "model": "m",
                                           "credential_env": credential,
                                           "timeout": 30}).timeout == 30

    def test_unknown_kind(self):
        with pytest.raises(ProviderConfigError):
            configure_provider("grpc", {})
        with pytest.raises(ProviderConfigError, match=r"^provider settings: \$\.kind must be "
                           r"'http' or 'replay', got \['http'\]$"):
            configure_provider(["http"], {})  # a JSON list is not a kind


class TestCompletionRequest:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="")
