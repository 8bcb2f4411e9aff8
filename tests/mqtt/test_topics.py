import re

import pytest

from repro.errors import TopicError
from repro.mqtt.topics import TopicTree, topic_matches, validate_filter, validate_topic


class TestValidation:
    def test_valid_topic_names(self):
        for topic in ("a", "a/b/c", "a//b", "sensor/room 1/temp"):
            assert validate_topic(topic) == topic

    def test_topic_rejects_wildcards(self):
        for bad, wildcard in (
            ("a/+/b", "+"),
            ("#", "#"),
            ("a/#", "#"),
            ("a+b", "+"),
            ("a#/+", "#"),
            ("a+#", "+"),
        ):
            message = f"wildcard {wildcard!r} not allowed in topic name {bad!r}"
            with pytest.raises(TopicError, match=f"^{re.escape(message)}$"):
                validate_topic(bad)

    def test_topic_rejects_empty_and_nul(self):
        with pytest.raises(TopicError, match="^topic must be non-empty$"):
            validate_topic("")
        with pytest.raises(TopicError, match="^topic may not contain NUL$"):
            validate_topic("a\x00b")
        with pytest.raises(TopicError, match="^topic may not contain NUL$"):
            validate_topic("a/+\x00")

    def test_valid_filter_strings(self):
        for f in ("a", "+", "#", "a/+/c", "a/#", "+/+/#"):
            assert validate_filter(f) == f

    def test_filter_hash_must_be_last(self):
        message = "'#' must be the last level in 'a/#/b'"
        with pytest.raises(TopicError, match=f"^{re.escape(message)}$"):
            validate_filter("a/#/b")

    def test_filter_wildcard_must_be_whole_level(self):
        for bad in ("a+", "a/b+", "a#", "x/#y"):
            message = f"wildcard must occupy a whole level in {bad!r}"
            with pytest.raises(TopicError, match=f"^{re.escape(message)}$"):
                validate_filter(bad)


class TestMatching:
    @pytest.mark.parametrize(
        "topic_filter,topic,expected",
        [
            ("a/b", "a/b", True),
            ("a/b", "a/c", False),
            ("a/+", "a/b", True),
            ("a/+", "a", False),
            ("a/+", "a/b/c", False),
            ("+/b", "a/b", True),
            ("#", "a/b/c", True),
            ("a/#", "a", True),
            ("a/#", "a/b/c", True),
            ("a/#", "b/a", False),
            ("a/+/c", "a/x/c", True),
            ("a/+/c", "a/x/d", False),
            ("a//b", "a//b", True),
            ("a/+/b", "a//b", True),
        ],
    )
    def test_matrix(self, topic_filter, topic, expected):
        assert topic_matches(topic_filter, topic) is expected


class TestTopicTree:
    def test_insert_and_match(self):
        tree = TopicTree()
        tree.insert("a/+", 1)
        tree.insert("a/b", 2)
        tree.insert("#", 3)
        assert sorted(tree.match("a/b")) == [1, 2, 3]
        assert sorted(tree.match("x")) == [3]

    def test_duplicates_kept(self):
        tree = TopicTree()
        tree.insert("a", "v")
        tree.insert("a", "v")
        assert tree.match("a") == ["v", "v"]
        assert len(tree) == 2

    def test_remove(self):
        tree = TopicTree()
        tree.insert("a/b", 1)
        tree.insert("a/b", 2)
        assert tree.remove("a/b", 1) is True
        assert tree.match("a/b") == [2]
        assert tree.remove("a/b", 99) is False
        assert tree.remove("ghost", 1) is False

    def test_remove_prunes_branches(self):
        tree = TopicTree()
        tree.insert("a/b/c/d", 1)
        tree.remove("a/b/c/d", 1)
        assert len(tree) == 0
        assert list(tree.filters()) == []

    def test_filters_listing(self):
        tree = TopicTree()
        tree.insert("a/#", 1)
        tree.insert("b/+/c", 2)
        assert sorted(tree.filters()) == ["a/#", "b/+/c"]

    def test_match_agrees_with_topic_matches(self):
        filters = ["a/b", "a/+", "a/#", "+/b", "#", "x/+/z"]
        tree = TopicTree()
        for f in filters:
            tree.insert(f, f)
        for topic in ("a/b", "a/c", "x/y/z", "q", "a/b/c"):
            expected = sorted(f for f in filters if topic_matches(f, topic))
            assert sorted(tree.match(topic)) == expected

    def test_hash_matches_parent_level(self):
        tree = TopicTree()
        tree.insert("sport/#", 1)
        assert tree.match("sport") == [1]
