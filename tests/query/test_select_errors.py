"""Select errors speak the user's terms: the array's name, dates as
dates, and region corners in the coordinates the statement used."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import DimensionError, VersionNotFoundError
from repro.query import Database


@pytest.fixture
def db(tmp_path):
    """``E`` over ``I=1:8, J=1:8`` with two versions."""
    with Database(tmp_path / "db", backend="memory") as database:
        database.execute(
            "CREATE UPDATABLE ARRAY E ( V::INTEGER ) [ I=1:8, J=1:8 ];")
        for step in range(2):
            database.manager.insert(
                "E", np.full((8, 8), step, dtype=np.int32))
        yield database


class TestVersionNotFound:
    def test_missing_version_names_the_array(self, db):
        with pytest.raises(VersionNotFoundError,
                           match=r"^array 'E' has no version 9$"):
            db.execute("SELECT * FROM SUBSAMPLE(E@9, 1, 2, 1, 2)")

    def test_date_before_every_version_prints_a_utc_date_time(self, db):
        with pytest.raises(
                VersionNotFoundError,
                match=r"^array 'E' has no version at or before "
                      r"2011-01-05 23:59:59\+00:00$"):
            db.execute("SELECT * FROM E@'1-5-2011'")

    def test_missing_label_names_the_array(self, db):
        with pytest.raises(VersionNotFoundError,
                           match=r"^array 'E' has no label 'nope'$"):
            db.execute("SELECT * FROM E@nope")


class TestReversedCorners:
    """Both region forms convert corners through one helper, which
    reports a reversed pair in user coordinates."""

    def test_window_select(self, db):
        with pytest.raises(DimensionError,
                           match="dimension I: from 2 down to 1"):
            db.execute("SELECT * FROM SUBSAMPLE(E@1, 2, 1, 1, 2)")
        with pytest.raises(DimensionError,
                           match="dimension J: from 8 down to 3"):
            db.manager.select_region("E", 1, (1, 8), (2, 3))

    def test_stacked_window_select(self, db):
        with pytest.raises(DimensionError,
                           match="dimension I: from 2 down to 1"):
            db.execute("SELECT * FROM SUBSAMPLE(E@*, 2, 1, 1, 2)")
        with pytest.raises(DimensionError,
                           match="dimension J: from 8 down to 3"):
            db.manager.select_versions_region("E", [1, 2], (1, 8), (2, 3))

    def test_in_order_corners_still_select(self, db):
        window = db.execute("SELECT * FROM SUBSAMPLE(E@2, 1, 1, 7, 8)")
        np.testing.assert_array_equal(window.value,
                                      np.ones((1, 2), dtype=np.int32))
