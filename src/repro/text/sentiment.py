"""The end-to-end sentiment pipeline of the Text Processing Module.

Combines the feature extractor and Naive Bayes under one train/score
API.  Training can run single-threaded or as a MapReduce job whose
reducers produce the per-class aggregates NB consumes — the same split
Mahout uses on Hadoop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import SentimentConfig
from ..errors import NotTrainedError, ValidationError
from ..mapreduce import JobRunner, MapReduceJob
from .features import FeatureExtractor
from .naive_bayes import NaiveBayesClassifier


@dataclass
class TrainingReport:
    """What a training run produced."""

    documents: int
    vocabulary_size: int
    training_accuracy: float
    config: SentimentConfig


class SentimentPipeline:
    """Train on ``(text, label)`` pairs; score arbitrary text.

    Labels follow the paper's Tripadvisor scheme: star ratings 1–5 are
    binarized (``>= 4`` positive, ``<= 2`` negative, 3 dropped) by
    :meth:`binarize_rating` before training.
    """

    def __init__(self, config: Optional[SentimentConfig] = None) -> None:
        self.config = config or SentimentConfig()
        self.extractor = FeatureExtractor(self.config)
        self.classifier = NaiveBayesClassifier()

    # ------------------------------------------------------------ labels

    @staticmethod
    def binarize_rating(rating: int) -> Optional[int]:
        """Map a 1–5 star rating to 1/0/None (positive/negative/drop)."""
        if not 1 <= rating <= 5:
            raise ValidationError("rating must be 1..5, got %r" % rating)
        if rating >= 4:
            return 1
        if rating <= 2:
            return 0
        return None

    # ---------------------------------------------------------- training

    def train(
        self, labeled_documents: Sequence[Tuple[str, int]]
    ) -> TrainingReport:
        """Single-process training: fit vocabulary, then the classifier."""
        if not labeled_documents:
            raise ValidationError("cannot train on an empty corpus")
        self.extractor.fit(labeled_documents)
        examples = [
            (self.extractor.transform(text), label)
            for text, label in labeled_documents
        ]
        self.classifier.train(examples)
        return self._report(labeled_documents)

    def train_mapreduce(
        self,
        labeled_documents: Sequence[Tuple[str, int]],
        runner: Optional[JobRunner] = None,
        num_mappers: int = 8,
    ) -> TrainingReport:
        """Distributed training: mappers extract per-document feature
        counts, reducers sum per-(class, feature) totals, and the final
        aggregates feed :meth:`NaiveBayesClassifier.from_aggregates`."""
        if not labeled_documents:
            raise ValidationError("cannot train on an empty corpus")
        self.extractor.fit(labeled_documents)
        extractor = self.extractor
        runner = runner or JobRunner()

        def mapper(record, emit, counters):
            text, label = record
            counts = extractor.transform(text)
            emit(("docs", label), 1)
            for feature, count in counts.items():
                emit((label, feature), count)

        def combiner(key, values, emit, counters):
            emit(key, sum(values))

        def reducer(key, values, emit, counters):
            emit(key, sum(values))

        job = MapReduceJob(
            name="nb-train",
            mapper=mapper,
            combiner=combiner,
            reducer=reducer,
            num_mappers=num_mappers,
            num_reducers=max(2, num_mappers // 2),
        )
        result = runner.run(job, list(labeled_documents))

        class_doc_counts: Dict[int, int] = {0: 0, 1: 0}
        class_feature_counts: Dict[int, Dict[str, int]] = {0: {}, 1: {}}
        for key, total in result.pairs:
            if key[0] == "docs":
                class_doc_counts[key[1]] = total
            else:
                label, feature = key
                class_feature_counts[label][feature] = total
        self.classifier.from_aggregates(class_doc_counts, class_feature_counts)
        return self._report(labeled_documents)

    def _report(
        self, labeled_documents: Sequence[Tuple[str, int]]
    ) -> TrainingReport:
        return TrainingReport(
            documents=len(labeled_documents),
            vocabulary_size=self.extractor.vocabulary_size,
            training_accuracy=self.evaluate(labeled_documents),
            config=self.config,
        )

    # --------------------------------------------------------- inference

    def score(self, text: str) -> float:
        """P(positive) for one text; the platform persists this next to
        the text itself (paper Section 2.2, Text Processing Module)."""
        if not self.classifier.is_trained:
            raise NotTrainedError("pipeline used before training")
        return self.classifier.predict_proba(self.extractor.transform(text))

    def classify(self, text: str) -> int:
        """Hard label: 1 positive, 0 negative."""
        if not self.classifier.is_trained:
            raise NotTrainedError("pipeline used before training")
        return self.classifier.predict(self.extractor.transform(text))

    def evaluate(self, labeled_documents: Iterable[Tuple[str, int]]) -> float:
        """Accuracy over a labeled set."""
        correct = 0
        total = 0
        for text, label in labeled_documents:
            total += 1
            if self.classify(text) == label:
                correct += 1
        if total == 0:
            raise ValidationError("cannot evaluate on an empty set")
        return correct / total
