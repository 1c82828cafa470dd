"""The NLP labeling-function pipeline.

This is the reproduction of the paper's central code example
(Section 5.1): an ``NLPLabelingFunction`` parameterized by two template
slots —

* ``get_text(example) -> str`` selects the text to send to the NLP model
  server ("StrCat(x.title, " ", x.body)") and
* ``get_value(example, nlp_result) -> vote`` computes the vote from the
  example plus the server's annotations ("if nlp.entities.people.size()
  == 0 return NEGATIVE; else return ABSTAIN;").

Because the NLP models are too expensive to run on all content, the
pipeline launches one model server per MapReduce compute node
(:meth:`_node_service_factory`, built and started by the LF's
:meth:`~repro.lf.base.AbstractLabelingFunction.start` and stopped by its
``stop``), and every annotation is accounted against that server's
virtual-latency budget. The batched path is the base class's loop over
:meth:`_vote`.
"""

from __future__ import annotations

from typing import Callable

from repro.lf.base import AbstractLabelingFunction
from repro.lf.registry import LFCategory, LFInfo
from repro.services.base import ModelServer, ServiceUnavailable
from repro.services.nlp_server import NLPResult, NLPServer
from repro.types import Example

__all__ = ["NLPLabelingFunction", "celebrity_example_lf"]


class NLPLabelingFunction(AbstractLabelingFunction):
    """Model-server pipeline with ``get_text``/``get_value`` slots."""

    def __init__(
        self,
        info: LFInfo,
        get_text: Callable[[Example], str],
        get_value: Callable[[Example, NLPResult], int],
        server_factory: Callable[[], NLPServer],
    ) -> None:
        super().__init__(info)
        self._get_text = get_text
        self._get_value = get_value
        self._server_factory = server_factory

    def _node_service_factory(self) -> Callable[[], ModelServer]:
        return self._server_factory

    def _vote(self, example: Example, service: ModelServer | None) -> int:
        if service is None:
            raise ServiceUnavailable(
                f"NLP labeling function {self.name!r} requires a node-local "
                f"model server; none was launched"
            )
        text = self._get_text(example)
        nlp = service.annotate(text)  # type: ignore[attr-defined]
        return self._get_value(example, nlp)


def celebrity_example_lf(
    server_factory: Callable[[], NLPServer],
    name: str = "nlp_no_person_negative",
) -> NLPLabelingFunction:
    """The paper's worked example, verbatim in Python.

    "The labeling function labels any content that does not contain a
    person as not related to celebrities."
    """

    def get_text(x: Example) -> str:
        return f"{x.fields.get('title', '')} {x.fields.get('body', '')}"

    def get_value(x: Example, nlp: NLPResult) -> int:
        if len(nlp.people) == 0:
            return -1  # NEGATIVE
        return 0  # ABSTAIN

    info = LFInfo(
        name=name,
        category=LFCategory.MODEL_BASED,
        servable=False,
        description="no person entities => not celebrity content",
        resources=("nlp-server",),
    )
    return NLPLabelingFunction(info, get_text, get_value, server_factory)
