"""Tests for the reliability layer: retries, caching, JSON repair."""

import json

import pytest

from repro.llm import (
    LLMResponse,
    MalformedOutputError,
    ReliableLLM,
    SimulatedLLM,
    TransientLLMError,
    Usage,
    repair_json,
)
from repro.llm.base import LLMClient
from repro.llm.errors import RateLimitError
from tests.conftest import RecordingBackend


class FlakyBackend(LLMClient):
    """Fails N times, then echoes. Records attempts."""

    def __init__(self, failures: int, error=TransientLLMError("boom")):
        self.remaining_failures = failures
        self.error = error
        self.attempts = 0

    def complete(self, prompt, model="sim-large", max_output_tokens=None, temperature=0.0):
        self.attempts += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise self.error
        return LLMResponse(text=f"echo:{prompt}", model=model, usage=Usage(1, 1, 1))


class TestRetries:
    def test_retries_until_success(self):
        backend = FlakyBackend(failures=2)
        llm = ReliableLLM(backend, max_retries=3, sleeper=lambda s: None)
        response = llm.complete("hi")
        assert response.text == "echo:hi"
        assert backend.attempts == 3
        assert llm.retries_performed == 2

    def test_gives_up_after_max_retries(self):
        backend = FlakyBackend(failures=10)
        llm = ReliableLLM(backend, max_retries=2, sleeper=lambda s: None)
        with pytest.raises(TransientLLMError, match="giving up"):
            llm.complete("hi")
        assert backend.attempts == 3

    def test_rate_limit_uses_retry_after(self):
        sleeps = []
        backend = FlakyBackend(failures=1, error=RateLimitError(retry_after_s=7.5))
        llm = ReliableLLM(backend, max_retries=2, sleeper=sleeps.append)
        llm.complete("hi")
        assert sleeps and sleeps[0] >= 7.5

    def test_backoff_grows(self):
        sleeps = []
        backend = FlakyBackend(failures=3)
        llm = ReliableLLM(backend, max_retries=4, backoff_base_s=1.0, sleeper=sleeps.append)
        llm.complete("hi")
        assert sleeps == [1.0, 2.0, 4.0]

    def test_terminal_failure_neither_sleeps_nor_counts(self):
        # At the defaults an always-5xx backend is asked 5 times: 4 of
        # those failures are followed by a retry, the fifth is terminal.
        sleeps = []
        backend = FlakyBackend(failures=100)
        llm = ReliableLLM(backend, sleeper=sleeps.append)
        with pytest.raises(TransientLLMError, match="giving up after 5 attempts"):
            llm.complete("hi")
        assert backend.attempts == 5
        assert llm.metrics()["retries_performed"] == 4
        assert sleeps == [0.05, 0.1, 0.2, 0.4]


class TestCache:
    def test_cache_hit_marked_and_free(self):
        backend = FlakyBackend(failures=0)
        llm = ReliableLLM(backend)
        first = llm.complete("q")
        second = llm.complete("q")
        assert backend.attempts == 1
        assert not first.cached
        assert second.cached
        assert second.latency_s == 0.0
        assert llm.cache_size() == 1

    def test_cache_keyed_by_model(self):
        backend = FlakyBackend(failures=0)
        llm = ReliableLLM(backend)
        llm.complete("q", model="sim-large")
        llm.complete("q", model="sim-small")
        assert backend.attempts == 2

    def test_temperature_bypasses_cache(self):
        backend = FlakyBackend(failures=0)
        llm = ReliableLLM(backend)
        llm.complete("q", temperature=0.5)
        llm.complete("q", temperature=0.5)
        assert backend.attempts == 2

    def test_cache_disabled(self):
        backend = FlakyBackend(failures=0)
        llm = ReliableLLM(backend, cache_enabled=False)
        llm.complete("q")
        llm.complete("q")
        assert backend.attempts == 2

    def test_clear_cache(self):
        llm = ReliableLLM(FlakyBackend(failures=0))
        llm.complete("q")
        llm.clear_cache()
        assert llm.cache_size() == 0


class TestRepairJson:
    def test_clean_json(self):
        assert repair_json('{"a": 1}') == {"a": 1}

    def test_code_fence(self):
        assert repair_json('```json\n{"a": 1}\n```') == {"a": 1}

    def test_surrounding_prose(self):
        assert repair_json('Here you go: {"a": [1, 2]} hope that helps') == {"a": [1, 2]}

    def test_trailing_comma(self):
        assert repair_json('{"a": 1,}') == {"a": 1}
        assert repair_json("[1, 2,]") == [1, 2]

    def test_truncated_object_closed(self):
        assert repair_json('{"a": 1, "b": {"c": 2') == {"a": 1, "b": {"c": 2}}

    def test_truncated_string_closed(self):
        result = repair_json('{"a": "hel')
        assert result == {"a": "hel"}

    def test_truncated_list(self):
        assert repair_json("[1, 2, 3") == [1, 2, 3]

    def test_hopeless_input_raises(self):
        with pytest.raises(MalformedOutputError):
            repair_json("no json here at all")

    def test_truncated_string_inside_array(self):
        assert repair_json('["abc", "de') == ["abc", "de"]

    def test_truncated_string_inside_nested_array(self):
        assert repair_json('{"items": ["alpha", "be') == {"items": ["alpha", "be"]}

    def test_truncated_object_inside_array_salvaged(self):
        # The half-open second element can't be recovered, but the parse
        # must still yield something rather than raise.
        assert repair_json('[{"a": 1}, {"b') == {"a": 1}

    def test_nested_code_fences(self):
        assert repair_json('```\n```json\n{"a": 1}\n```\n```') == {"a": 1}

    def test_fence_with_surrounding_prose(self):
        text = 'Sure thing: ```json\n{"a": [1, 2]}\n``` hope that helps'
        assert repair_json(text) == {"a": [1, 2]}

    def test_unterminated_fence(self):
        assert repair_json('```json\n{"a": "x"}') == {"a": "x"}

    def test_valid_json_runs_no_repair(self, monkeypatch):
        from repro.llm import client

        def unreachable(*args, **kwargs):
            raise AssertionError("a repair ran on well-formed JSON")

        monkeypatch.setattr(client, "_close_brackets", unreachable)
        plan = '[{"operation": "QueryIndex", "inputs": [], "index": "ntsb"}, {"a": [1, {"b": "}"}]}]'
        assert repair_json(plan) == json.loads(plan)


class TestCompleteJson:
    def test_retries_malformed_output(self):
        # malformed_rate=1.0 truncates every completion; the retry loop
        # bumps temperature, but the repair pass usually rescues it first.
        llm = ReliableLLM(SimulatedLLM(seed=0, malformed_rate=0.0))
        from repro.llm import EXTRACT_PROPERTIES

        prompt = EXTRACT_PROPERTIES.render(
            schema=json.dumps({"x": "string"}), document="X: hello"
        )
        result = llm.complete_json(prompt, model="sim-oracle")
        assert isinstance(result, dict)

    def test_malformed_then_repaired(self):
        llm = ReliableLLM(SimulatedLLM(seed=1, malformed_rate=1.0))
        from repro.llm import EXTRACT_PROPERTIES

        prompt = EXTRACT_PROPERTIES.render(
            schema=json.dumps({"alpha": "string", "beta": "string"}),
            document="Alpha: one\nBeta: two",
        )
        result = llm.complete_json(prompt, model="sim-oracle")
        assert isinstance(result, dict)  # repair or retry succeeded


class TestCompleteManyFix:
    def test_shared_pool_is_reused_across_calls(self):
        llm = ReliableLLM(SimulatedLLM(seed=0), cache_enabled=False)
        prompts = [f"<<TASK:echo>>\n<<SECTION:text>>\np{i}" for i in range(4)]
        llm.complete_many(prompts, parallelism=4)
        pool_first = llm._pool
        llm.complete_many(prompts, parallelism=4)
        assert llm._pool is pool_first is not None
        llm.close()
        assert llm._pool is None

    def test_intra_batch_duplicates_collapse_preserving_order(self):
        backend = RecordingBackend()
        llm = ReliableLLM(backend, cache_enabled=False)
        results = llm.complete_many(["a", "b", "a", "a", "b"], parallelism=4)
        assert [r.text for r in results] == [
            "echo:a", "echo:b", "echo:a", "echo:a", "echo:b"
        ]
        assert sorted(backend.calls) == ["a", "b"]
        llm.close()

    def test_return_exceptions_isolates_failures(self):
        backend = RecordingBackend(fail_substring="bad")
        llm = ReliableLLM(backend, max_retries=0, cache_enabled=False)
        results = llm.complete_many(
            ["ok", "bad", "ok2"], parallelism=2, return_exceptions=True
        )
        assert results[0].text == "echo:ok"
        assert isinstance(results[1], TransientLLMError)
        assert results[2].text == "echo:ok2"
        llm.close()

    def test_sequential_path_still_raises(self):
        backend = RecordingBackend(fail_substring="bad")
        llm = ReliableLLM(backend, max_retries=0, cache_enabled=False)
        with pytest.raises(TransientLLMError):
            llm.complete_many(["bad"], parallelism=1)
