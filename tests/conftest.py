import pytest

from ffmobius import get_field


@pytest.fixture(scope="session")
def F2():
    return get_field(2)


@pytest.fixture(scope="session")
def F3():
    return get_field(3)


@pytest.fixture(scope="session")
def F4():
    return get_field(2, 2)


@pytest.fixture(scope="session")
def F5():
    return get_field(5)


@pytest.fixture(scope="session")
def F9():
    return get_field(3, 2)


@pytest.fixture(scope="session")
def F7():
    return get_field(7)


@pytest.fixture(scope="session")
def F8():
    return get_field(2, 3)


@pytest.fixture(scope="session")
def F25():
    return get_field(5, 2)


@pytest.fixture(scope="session")
def F27():
    return get_field(3, 3)
