"""Tests for features, Naive Bayes and the sentiment pipeline."""

import math

import pytest

from repro.config import SentimentConfig
from repro.datagen import ReviewGenerator
from repro.errors import NotTrainedError, ValidationError
from repro.mapreduce import JobRunner
from repro.text import (
    FeatureExtractor,
    NaiveBayesClassifier,
    SentimentPipeline,
    bns_scores,
)
from repro.text.features import _norm_ppf


class TestNormPpf:
    def test_median(self):
        assert _norm_ppf(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_known_quantiles(self):
        assert _norm_ppf(0.975) == pytest.approx(1.959964, abs=1e-4)
        assert _norm_ppf(0.025) == pytest.approx(-1.959964, abs=1e-4)
        assert _norm_ppf(0.8413447) == pytest.approx(1.0, abs=1e-4)

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3):
            assert _norm_ppf(p) == pytest.approx(-_norm_ppf(1 - p), abs=1e-8)

    def test_invalid(self):
        with pytest.raises(ValueError):
            _norm_ppf(0.0)
        with pytest.raises(ValueError):
            _norm_ppf(1.0)


class TestBNS:
    def test_discriminative_feature_scores_higher(self):
        pos = {"good": 90, "meh": 50}
        neg = {"bad": 85, "meh": 50}
        scores = bns_scores(pos, neg, num_pos=100, num_neg=100)
        assert scores["good"] > scores["meh"]
        assert scores["bad"] > scores["meh"]

    def test_balanced_feature_near_zero(self):
        scores = bns_scores({"x": 50}, {"x": 50}, 100, 100)
        assert scores["x"] == pytest.approx(0.0, abs=1e-9)


class TestFeatureExtractor:
    DOCS = [
        ("great great food lovely place", 1),
        ("awful bad food dirty place", 0),
        ("great service lovely view", 1),
        ("bad service awful noise", 0),
    ] * 5

    def test_tf_counts_vs_presence(self):
        tf = FeatureExtractor(SentimentConfig(use_tf=True, use_bns=False,
                                              min_occurrences=0))
        tf.fit(self.DOCS)
        counts = tf.transform("great great food")
        assert counts["great"] == 2

        binary = FeatureExtractor(SentimentConfig(use_tf=False, use_bns=False,
                                                  min_occurrences=0))
        binary.fit(self.DOCS)
        counts = binary.transform("great great food")
        assert counts["great"] == 1

    def test_bigrams_included(self):
        fe = FeatureExtractor(SentimentConfig(use_bigrams=True, use_bns=False,
                                              min_occurrences=0, stem=False))
        fe.fit([("spotless clean room", 1), ("barely clean room", 0)] * 3)
        features = fe.transform("spotless clean")
        assert "spotless_clean" in features

    def test_min_occurrence_pruning(self):
        fe = FeatureExtractor(SentimentConfig(use_bns=False, use_bigrams=False,
                                              min_occurrences=3, stem=False))
        docs = [("rare word here", 1)] + [("common text common", 0)] * 5
        fe.fit(docs)
        assert "rare" not in fe.transform("rare common")
        assert "common" in fe.transform("rare common")

    def test_bns_keeps_fraction(self):
        full = FeatureExtractor(SentimentConfig(use_bns=False, min_occurrences=0))
        full.fit(self.DOCS)
        selected = FeatureExtractor(
            SentimentConfig(use_bns=True, bns_keep_fraction=0.3, min_occurrences=0)
        )
        selected.fit(self.DOCS)
        assert 0 < selected.vocabulary_size < full.vocabulary_size


class TestNaiveBayes:
    def test_untrained_raises(self):
        with pytest.raises(NotTrainedError):
            NaiveBayesClassifier().predict({"x": 1})

    def test_invalid_smoothing(self):
        with pytest.raises(ValidationError):
            NaiveBayesClassifier(smoothing=0.0)

    def test_learns_separable_classes(self):
        nb = NaiveBayesClassifier()
        nb.train(
            [({"good": 2}, 1), ({"nice": 1}, 1), ({"bad": 2}, 0), ({"ugly": 1}, 0)]
        )
        assert nb.predict({"good": 1}) == 1
        assert nb.predict({"bad": 1}) == 0

    def test_predict_proba_in_unit_interval_and_consistent(self):
        nb = NaiveBayesClassifier()
        nb.train([({"a": 3}, 1), ({"b": 3}, 0)])
        p = nb.predict_proba({"a": 1})
        assert 0.5 < p <= 1.0
        assert nb.predict_proba({"b": 1}) < 0.5
        # Unseen features fall back to the prior-driven score.
        assert 0.0 <= nb.predict_proba({"zzz": 1}) <= 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            NaiveBayesClassifier().train([])

    def test_invalid_label_rejected(self):
        with pytest.raises(ValidationError):
            NaiveBayesClassifier().train([({"a": 1}, 2)])

    def test_prior_influences_ambiguous_doc(self):
        nb = NaiveBayesClassifier()
        # 3:1 positive corpus; a doc of unseen words should lean positive.
        nb.train([({"w%d" % i: 1}, 1) for i in range(3)] + [({"x": 1}, 0)])
        assert nb.predict_proba({"unseen": 1}) > 0.5


class TestSentimentPipeline:
    def test_binarize_rating(self):
        assert SentimentPipeline.binarize_rating(5) == 1
        assert SentimentPipeline.binarize_rating(4) == 1
        assert SentimentPipeline.binarize_rating(3) is None
        assert SentimentPipeline.binarize_rating(2) == 0
        assert SentimentPipeline.binarize_rating(1) == 0
        with pytest.raises(ValidationError):
            SentimentPipeline.binarize_rating(0)

    def test_untrained_raises(self):
        with pytest.raises(NotTrainedError):
            SentimentPipeline().score("anything")

    def test_trains_to_high_accuracy_on_synthetic_corpus(self):
        corpus = ReviewGenerator(seed=3, capacity=4000).labeled_texts(1200)
        pipeline = SentimentPipeline(SentimentConfig.optimized())
        report = pipeline.train(corpus)
        assert report.training_accuracy > 0.9
        assert report.vocabulary_size > 50

    def test_optimized_beats_baseline(self):
        gen = ReviewGenerator(seed=9, capacity=4000)
        train = gen.labeled_texts(1500)
        test = gen.labeled_texts(400, start=1500)
        base = SentimentPipeline(SentimentConfig.baseline())
        base.train(train)
        opt = SentimentPipeline(SentimentConfig.optimized())
        opt.train(train)
        assert opt.evaluate(test) >= base.evaluate(test)

    def test_mapreduce_training_matches_single_process(self):
        corpus = ReviewGenerator(seed=4, capacity=2000).labeled_texts(400)
        single = SentimentPipeline(SentimentConfig.optimized())
        single.train(corpus)
        runner = JobRunner()
        distributed = SentimentPipeline(SentimentConfig.optimized())
        distributed.train_mapreduce(corpus, runner=runner)
        probe = ReviewGenerator(seed=4, capacity=2000).labeled_texts(100, start=400)
        for text, _label in probe:
            assert single.classify(text) == distributed.classify(text)

    def test_score_matches_classify(self):
        corpus = ReviewGenerator(seed=5, capacity=2000).labeled_texts(500)
        pipeline = SentimentPipeline()
        pipeline.train(corpus)
        for text, _ in corpus[:50]:
            score = pipeline.score(text)
            assert (score >= 0.5) == (pipeline.classify(text) == 1)
